// Known-bad fixture: key material in flight-recorder events and metrics.
// Not compiled — consumed by `vkey_secretflow.py --self-test` only.
#include <cstdint>
#include <string>

namespace fixture {

void leak_recorder(FlightRecorder* recorder) {
  const auto mac_key = hkdf_expand(prk, "mac", 32);
  recorder->record(kTx, "alice", to_hex(mac_key));  // expect: secret-to-flight-recorder
  recorder->record(kTx, "alice", "mac verified");  // outcome only: silent
}

void leak_formatted_detail(FlightRecorder* recorder) {
  const auto enc_key = hkdf_expand(prk, "enc", 16);
  FlightDetail note;
  note << "first byte " << enc_key.expose()[0];
  recorder->record(kTx, "alice", note);  // expect: secret-to-flight-recorder
  FlightDetail outcome;
  (outcome << "attempt=" << attempt).number(delay_ms);
  recorder->record(kTx, "alice", outcome);  // outcome only: silent
}

void leak_metrics(metrics::Histogram& hist) {
  const auto epoch_key = ratchet_secret(prev, 1);
  hist.observe(static_cast<double>(epoch_key.expose()[0]));  // expect: secret-to-metrics
  hist.observe(42.0);  // plain latency sample: silent
}

void leak_snapshot(const std::string& path) {
  const auto okm = hkdf_expand(prk, info, 32);
  bench_io::write_lines(path, okm);  // expect: secret-to-snapshot
}

}  // namespace fixture
