// Known-bad fixture: key material serialized to JSON, streams, and hex.
// Not compiled — consumed by `vkey_secretflow.py --self-test` only.
#include <cstdint>
#include <iostream>

namespace fixture {

void leak_json(json::Value& snapshot) {
  const auto okm = hkdf_expand(hkdf_extract(salt, ikm), info, 32);
  snapshot["key"] = json::Value(to_hex(okm));  // expect: secret-to-json
  snapshot["len"] = json::Value(32);  // length only: silent
}

void leak_stream() {
  const auto prk = hkdf_extract(salt, ikm);
  std::cout << prk.expose()[0] << "\n";  // expect: secret-to-stream
  auto copied = prk;
  std::cerr << copied.expose().size();  // expect: secret-to-stream
}

void leak_hex() {
  const auto raw_key = amplify(bits, 7);
  const auto hex = to_hex(raw_key);  // expect: secret-to-hex
  (void)hex;
}

void taint_dies_with_scope() {
  {
    auto buf = hkdf_extract(salt, ikm);
    (void)buf;
  }
  int buf = 3;
  std::cout << buf;  // clean: the tainted `buf` left scope above
}

}  // namespace fixture
