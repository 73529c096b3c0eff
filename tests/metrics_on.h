// Test helper for every test binary: the suite must behave the same under
// `VKEY_METRICS=off ctest`, so a test that reads what metrics collection
// records holds a MetricsOn for its body.
#pragma once

#include "common/metrics.h"

namespace vkey {

/// Forces collection on for its scope and restores the state it found.
struct MetricsOn {
  bool prev = metrics::enabled();
  MetricsOn() { metrics::set_enabled(true); }
  ~MetricsOn() { metrics::set_enabled(prev); }
  MetricsOn(const MetricsOn&) = delete;
  MetricsOn& operator=(const MetricsOn&) = delete;
};

}  // namespace vkey
