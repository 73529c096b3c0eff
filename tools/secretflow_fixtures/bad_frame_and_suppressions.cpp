// Known-bad fixture: unsealed frame payloads and the suppression grammar.
// Not compiled — consumed by `vkey_secretflow.py --self-test` only.
#include <cstdint>
#include <iostream>

namespace fixture {

void leak_frame(wire::FrameWriter& writer) {
  const auto epoch_key = derive_epoch_keys(secret, 7, 0);
  writer.put_bytes(epoch_key.expose());  // expect: secret-to-frame
  writer.put_bytes(ciphertext);  // sealed bytes: silent
}

void suppression_without_reason() {
  const auto okm = hkdf_expand(hkdf_extract(salt, ikm), info, 32);
  // A bare allow() is fail-closed: the finding still fires AND the
  // suppression itself is flagged.
  std::cout << okm.expose()[0];  // vkey-secret: allow(secret-to-stream) // expect: secret-to-stream, suppression-missing-reason
}

void suppression_with_reason() {
  const auto okm = hkdf_expand(hkdf_extract(salt, ikm), info, 32);
  // vkey-secret: allow(secret-to-stream) -- fixture: demonstrates a
  // documented declassification; silences the finding below.
  std::cout << okm.expose().size();
}

}  // namespace fixture
