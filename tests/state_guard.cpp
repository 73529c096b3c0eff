// Linked into every test binary: fails any test that ends with the
// process-wide observability switches — metrics::enabled(),
// TraceLog::global().enabled() and parallel::default_threads() — different
// from their values at program start, then puts them back so only the test
// that leaked is blamed. ctest runs one test per process, which hides a
// leak; a filtered run of several tests in one process (the fuzz smoke)
// would otherwise run every later test under the leaked state.
#include <gtest/gtest.h>

#include <cstddef>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace {

struct GlobalState {
  bool metrics = false;
  bool tracing = false;
  std::size_t threads = 0;

  static GlobalState now() {
    return {vkey::metrics::enabled(),
            vkey::trace::TraceLog::global().enabled(),
            vkey::parallel::default_threads()};
  }
};

class StateGuard : public ::testing::EmptyTestEventListener {
  void OnTestProgramStart(const ::testing::UnitTest&) override {
    start_ = GlobalState::now();
  }

  void OnTestEnd(const ::testing::TestInfo&) override {
    const GlobalState end = GlobalState::now();
    EXPECT_EQ(end.metrics, start_.metrics)
        << "the test left metrics::enabled() changed";
    EXPECT_EQ(end.tracing, start_.tracing)
        << "the test left TraceLog::global().enabled() changed";
    EXPECT_EQ(end.threads, start_.threads)
        << "the test left parallel::default_threads() changed";
    vkey::metrics::set_enabled(start_.metrics);
    vkey::trace::TraceLog::global().set_enabled(start_.tracing);
    vkey::parallel::set_default_threads(start_.threads);
  }

  GlobalState start_;
};

// Appended before gtest_main runs the tests; gtest owns the listener.
[[maybe_unused]] const bool kInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new StateGuard);
  return true;
}();

}  // namespace
