// Known-bad fixture: key material attached to trace spans and instants.
// Not compiled — consumed by `vkey_secretflow.py --self-test` only. Each
// `// expect:` annotation names the rule the analyzer must fire on that
// exact line; the self-test fails on misses AND on extra findings.
#include <cstdint>
#include <span>

namespace fixture {

void leak_span_attr(trace::ScopedTimer& t, const SecretBuffer& session_key) {
  const auto okm = hkdf_expand(hkdf_extract(salt, ikm), info, 32);
  t.attr("okm0", okm.expose()[0]);  // expect: secret-to-trace
  auto head = session_key.expose()[0];
  t.attr("head", head);  // expect: secret-to-trace
  t.attr("okm_len", 32);  // length literal only: must stay silent
}

void leak_instant(trace::TraceLog& log, double t_ms) {
  const auto confirm_key = hkdf_expand(prk, "confirm", 16);
  log.instant("confirm", t_ms, confirm_key);  // expect: secret-to-trace
}

}  // namespace fixture
