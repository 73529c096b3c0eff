// Known-good fixture: idiomatic secret handling that must produce ZERO
// findings. Guards the analyzer against false positives as much as the
// bad fixtures guard it against false negatives.
// Not compiled — consumed by `vkey_secretflow.py --self-test` only.
#include <cstdint>
#include <iostream>
#include <vector>

namespace fixture {

// Keyed primitives are sanctioned consumers: secrets flowing INTO
// HMAC/HKDF/AES is the point of having them.
Tag sanctioned_consumers(const SecretBuffer& mac_key,
                         std::span<const std::uint8_t> message) {
  return hmac_sha256(mac_key, message);
}

// Sealing is the sanctioned way for derived material to reach a frame.
Message sanctioned_seal(KeySchedule& schedule,
                        const std::vector<std::uint8_t>& payload) {
  return schedule.seal(1, payload);
}

// Lengths, counts, and outcomes are public: attaching them to spans,
// recorder events, and metrics is encouraged.
void public_observability(trace::ScopedTimer& t, FlightRecorder* rec,
                          metrics::Histogram& hist, double elapsed_ms) {
  t.attr("payload_len", 16);
  t.attr("epoch", 3);
  rec->record(kRx, "bob", "confirm ok");
  hist.observe(elapsed_ms);
}

// A wiped-then-reused local does not carry taint out of its scope.
void scope_hygiene() {
  {
    auto scratch = hkdf_extract(salt, ikm);
    (void)scratch;
  }
  int scratch = 0;
  std::cout << scratch;
}

}  // namespace fixture
