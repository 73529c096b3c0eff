// Known-bad fixture: key material annotated onto the telemetry sampler.
// Annotations land verbatim in the JSONL header line of every
// --telemetry-out export, so they are as public as a committed snapshot.
// Not compiled — consumed by `vkey_secretflow.py --self-test` only.
#include <string>

namespace fixture {

void leak_annotation(telemetry::Sampler& sampler) {
  const auto session_key = hkdf_expand(prk, info, 32);
  sampler.annotate("session_key", to_hex(session_key));  // expect: secret-to-telemetry
  sampler.annotate("seed", "12345");  // run parameter: silent
  sampler.annotate("sessions", "20000");  // run parameter: silent
}

void leak_via_pointer(telemetry::Sampler* sampler) {
  const auto okm = hkdf_expand(prk, "telemetry", 16);
  sampler->annotate("okm", std::string(okm.expose(), 16));  // expect: secret-to-telemetry
}

}  // namespace fixture
