#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace vkey::trace {

double wall_now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

namespace {

// Per-thread ambient span context. `parent` is the innermost open span on
// this thread (0 = none); `lane` is the execution-lane id (0 = a calling
// thread, 1..N-1 = borrowed pool workers, installed via LaneScope).
struct Ctx {
  std::uint64_t parent = 0;
  std::uint32_t lane = 0;
};

thread_local Ctx tls_ctx;

}  // namespace

std::string to_string(Domain d) {
  return d == Domain::kVirtual ? "virtual" : "wall";
}

json::Value Attr::to_json() const {
  switch (kind) {
    case Kind::kInt:
      return json::Value(i);
    case Kind::kDouble:
      return json::Value(d);
    case Kind::kString:
      break;
  }
  return json::Value(s);
}

std::uint64_t current_parent() noexcept { return tls_ctx.parent; }

std::uint32_t current_lane() noexcept { return tls_ctx.lane; }

LaneScope::LaneScope(std::uint32_t lane, std::uint64_t ambient_parent) noexcept
    : prev_lane_(tls_ctx.lane), prev_parent_(tls_ctx.parent) {
  tls_ctx.lane = lane;
  tls_ctx.parent = ambient_parent;
}

LaneScope::~LaneScope() {
  tls_ctx.lane = prev_lane_;
  tls_ctx.parent = prev_parent_;
}

TraceLog& TraceLog::global() {
  static TraceLog* log = new TraceLog();
  return *log;
}

TraceLog::TraceLog() {
  const char* env = std::getenv("VKEY_TRACE");
  enabled_ = env != nullptr && (std::strcmp(env, "on") == 0 ||
                                std::strcmp(env, "1") == 0 ||
                                std::strcmp(env, "true") == 0);
}

void TraceLog::set_capacity(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.set_capacity(n);
}

void TraceLog::record(Span span) {
  if (span.id == 0) span.id = next_id();
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push(std::move(span));
}

void TraceLog::instant(std::string name, double t_ms, Domain domain,
                       std::vector<Attr> attrs) {
  if (!enabled()) return;
  Span s;
  s.name = std::move(name);
  s.start_ms = t_ms;
  s.id = next_id();
  s.parent = tls_ctx.parent;
  s.lane = tls_ctx.lane;
  s.domain = domain;
  s.instant = true;
  s.attrs = std::move(attrs);
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push(std::move(s));
}

std::vector<Span> TraceLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.to_vector();
}

std::size_t TraceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.dropped();
}

void TraceLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

json::Value TraceLog::chrome_trace(bool virtual_only) const {
  std::vector<Span> all;
  std::size_t dropped_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all = ring_.to_vector();
    dropped_count = ring_.dropped();
  }
  if (virtual_only) {
    std::erase_if(all,
                  [](const Span& s) { return s.domain != Domain::kVirtual; });
  }
  // Canonical order: (start_ms, id). Ids are handed out in start order, so
  // this is a total order independent of the stop/record interleaving —
  // the property that makes a virtual-only export byte-identical across
  // worker-lane counts.
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    if (a.start_ms != b.start_ms) return a.start_ms < b.start_ms;
    return a.id < b.id;
  });
  // Remap process-unique ids to dense indices so the export never leaks
  // how many spans other runs (or the wall domain) consumed.
  std::unordered_map<std::uint64_t, std::size_t> dense;
  dense.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) dense.emplace(all[i].id, i);

  json::Value events = json::Value::array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    json::Value e = json::Value::object();
    e.set("name", json::Value(s.name));
    e.set("cat", json::Value(to_string(s.domain)));
    e.set("ph", json::Value(s.instant ? "i" : "X"));
    e.set("ts", json::Value(s.start_ms * 1000.0));  // trace-event ts is µs
    if (!s.instant) e.set("dur", json::Value(s.duration_ms * 1000.0));
    e.set("pid", json::Value(0));
    e.set("tid", json::Value(s.lane));
    if (s.instant) e.set("s", json::Value("t"));
    json::Value args = json::Value::object();
    args.set("id", json::Value(i));
    // A parent evicted by the ring (or filtered with the wall domain) is
    // simply absent: the span exports as a root rather than dangling.
    const auto it = s.parent != 0 ? dense.find(s.parent) : dense.end();
    if (it != dense.end()) args.set("parent", json::Value(it->second));
    for (const Attr& at : s.attrs) args.set(at.key, at.to_json());
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }

  json::Value root = json::Value::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", json::Value("ms"));
  json::Value other = json::Value::object();
  other.set("dropped", json::Value(dropped_count));
  root.set("otherData", std::move(other));
  return root;
}

bool TraceLog::write_chrome_trace(const std::string& path,
                                  bool virtual_only) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "trace: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << chrome_trace(virtual_only).dump(0) << '\n';
  return out.good();
}

ScopedTimer::ScopedTimer(metrics::Histogram& hist, std::string_view name)
    : hist_(&hist) {
  begin(name);
}

ScopedTimer::ScopedTimer(metrics::Histogram& hist, NowFn now,
                         std::string_view name)
    : hist_(&hist), now_(std::move(now)) {
  begin(name);
}

void ScopedTimer::begin(std::string_view name) {
  if (!metrics::enabled()) return;  // no clock read, no allocation
  // Every explicit NowFn in this tree is a SimClock (or test) virtual time
  // base; wall-clock callers use the default clock.
  domain_ = now_ ? Domain::kVirtual : Domain::kWall;
  start_ms_ = now_ ? now_() : wall_now_ms();
  running_ = true;
  TraceLog& log = TraceLog::global();
  if (!name.empty() && log.enabled()) {
    id_ = log.next_id();
    name_.assign(name);
    lane_ = tls_ctx.lane;
    prev_parent_ = tls_ctx.parent;
    tls_ctx.parent = id_;  // children opened in this scope nest under us
  }
}

double ScopedTimer::stop() {
  if (!running_) return 0.0;
  running_ = false;
  const double elapsed = (now_ ? now_() : wall_now_ms()) - start_ms_;
  hist_->observe(elapsed);
  if (id_ != 0) {
    tls_ctx.parent = prev_parent_;
    TraceLog& log = TraceLog::global();
    if (log.enabled()) {
      Span s;
      s.name = std::move(name_);
      s.start_ms = start_ms_;
      s.duration_ms = elapsed;
      s.id = id_;
      s.parent = prev_parent_;
      s.lane = lane_;
      s.domain = domain_;
      s.attrs = std::move(attrs_);
      log.record(std::move(s));
    }
  }
  return elapsed;
}

ScopedTimer::~ScopedTimer() { stop(); }

}  // namespace vkey::trace
