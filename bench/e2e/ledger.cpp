#include "ledger.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <utility>

#include "common/alloc_stats.h"
#include "common/trace.h"

namespace e2e {

namespace {

double clock_ms(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

std::uint64_t allocations() { return vkey::alloc_stats::totals().allocations; }

/// Small dense id of the calling thread (0, 1, ...): the span's trace lane.
std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag =
      next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

/// One open span. The stack is fixed-size so opening a span never
/// allocates; the deepest nesting the benchmark uses is agree > predict.
struct Frame {
  Layer layer = Layer::kProbe;
  std::uint64_t calls = 0;
  double cpu0 = 0.0;
  std::uint64_t allocs0 = 0;
  double wall0 = 0.0;
  double child_cpu = 0.0;
  std::uint64_t child_allocs = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};
constexpr int kMaxDepth = 8;
thread_local std::array<Frame, kMaxDepth> t_stack;
thread_local int t_depth = 0;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kProbe: return "channel.probe";
    case Layer::kExtract: return "core.extract";
    case Layer::kPredict: return "core.predict";
    case Layer::kAgree: return "protocol.agree";
    case Layer::kKeySchedule: return "protocol.key_schedule";
    case Layer::kCount: break;
  }
  return "?";
}

}  // namespace

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

LayerTotals Ledger::totals(Layer layer) const {
  const Slot& s = slots_[static_cast<std::size_t>(layer)];
  LayerTotals t;
  t.calls = s.calls.load(std::memory_order_relaxed);
  t.self_cpu_ms =
      static_cast<double>(s.self_cpu_ns.load(std::memory_order_relaxed)) *
      1e-6;
  t.self_allocs = s.self_allocs.load(std::memory_order_relaxed);
  return t;
}

void Ledger::add(Layer layer, std::uint64_t calls, double cpu_ms,
                 std::uint64_t allocs) {
  Slot& s = slots_[static_cast<std::size_t>(layer)];
  s.calls.fetch_add(calls, std::memory_order_relaxed);
  s.self_cpu_ns.fetch_add(
      static_cast<std::uint64_t>(cpu_ms > 0.0 ? cpu_ms * 1e6 : 0.0),
      std::memory_order_relaxed);
  s.self_allocs.fetch_add(allocs, std::memory_order_relaxed);
}

Ledger::Span::Span(Ledger& ledger, Layer layer, std::uint64_t calls)
    : ledger_(ledger.enabled_ ? &ledger : nullptr) {
  if (ledger_ == nullptr) return;
  if (t_depth >= kMaxDepth) {
    std::fprintf(stderr, "bench_e2e: ledger spans nested too deeply\n");
    std::abort();
  }
  Frame& f = t_stack[static_cast<std::size_t>(t_depth)];
  f = Frame{};
  f.layer = layer;
  f.calls = calls;
  if (ledger_->export_) {
    f.span_id = vkey::trace::TraceLog::global().next_id();
    f.parent_id =
        t_depth > 0 ? t_stack[static_cast<std::size_t>(t_depth) - 1].span_id
                    : 0;
    f.wall0 = vkey::trace::wall_now_ms();
  }
  ++t_depth;
  f.allocs0 = allocations();
  f.cpu0 = thread_cpu_ms();
}

Ledger::Span::~Span() {
  if (ledger_ == nullptr) return;
  const double cpu1 = thread_cpu_ms();
  const std::uint64_t allocs1 = allocations();
  --t_depth;
  const Frame& f = t_stack[static_cast<std::size_t>(t_depth)];
  const double total_cpu = cpu1 - f.cpu0;
  const std::uint64_t total_allocs = allocs1 - f.allocs0;
  if (t_depth > 0) {
    Frame& parent = t_stack[static_cast<std::size_t>(t_depth) - 1];
    parent.child_cpu += total_cpu;
    parent.child_allocs += total_allocs;
  }
  const double self_cpu = total_cpu - f.child_cpu;
  const std::uint64_t self_allocs =
      total_allocs >= f.child_allocs ? total_allocs - f.child_allocs : 0;
  ledger_->add(f.layer, f.calls, self_cpu, self_allocs);

  if (ledger_->export_) {
    const vkey::alloc_stats::PauseScope quiet;
    vkey::trace::Span s;
    s.name = layer_name(f.layer);
    s.start_ms = f.wall0;
    s.duration_ms = vkey::trace::wall_now_ms() - f.wall0;
    s.id = f.span_id;
    s.parent = f.parent_id;
    s.lane = thread_tag();
    s.domain = vkey::trace::Domain::kWall;
    s.attrs.emplace_back("self_cpu_us", self_cpu * 1e3);
    s.attrs.emplace_back("self_allocs", self_allocs);
    s.attrs.emplace_back("calls", f.calls);
    vkey::trace::TraceLog::global().record(std::move(s));
  }
}

}  // namespace e2e
