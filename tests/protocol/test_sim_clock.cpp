// SimClock against a reference model: an ordered-map scheduler,
// (due, id) -> callback plus id -> due for cancel(). Seeded
// interleavings of every public operation, including equal due times,
// negative delays, past absolute instants, cancels of live, fired and
// cancelled ids, cancels and schedules from inside callbacks, and clear(),
// must produce the same firing order, clock readings and return values.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "protocol/sim_clock.h"

namespace vkey::protocol {
namespace {

/// The reference model: SimClock's semantics over two std::maps.
class MapClock {
 public:
  using EventId = std::uint64_t;
  using Callback = std::function<void()>;

  double now_ms() const { return now_ms_; }

  EventId schedule(double delay_ms, Callback fn) {
    if (delay_ms < 0.0) delay_ms = 0.0;
    return schedule_at(now_ms_ + delay_ms, std::move(fn));
  }

  EventId schedule_at(double due_ms, Callback fn) {
    if (due_ms < now_ms_) due_ms = now_ms_;
    const EventId id = next_id_++;
    queue_.emplace(Key{due_ms, id}, std::move(fn));
    due_.emplace(id, due_ms);
    return id;
  }

  bool cancel(EventId id) {
    const auto it = due_.find(id);
    if (it == due_.end()) return false;
    queue_.erase(Key{it->second, id});
    due_.erase(it);
    return true;
  }

  bool run_next() {
    if (queue_.empty()) return false;
    const auto head = queue_.begin();
    const Key key = head->first;
    Callback fn = std::move(head->second);
    queue_.erase(head);
    due_.erase(key.second);
    now_ms_ = key.first;
    fn();
    return true;
  }

  std::size_t run_until(double until_ms) {
    std::size_t ran = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= until_ms) {
      run_next();
      ++ran;
    }
    if (until_ms > now_ms_) now_ms_ = until_ms;
    return ran;
  }

  std::size_t run_until_idle(std::size_t max_events) {
    std::size_t ran = 0;
    while (ran < max_events && run_next()) ++ran;
    return ran;
  }

  std::size_t pending() const { return queue_.size(); }

  std::size_t clear() {
    const std::size_t dropped = queue_.size();
    queue_.clear();
    due_.clear();
    return dropped;
  }

 private:
  using Key = std::pair<double, EventId>;
  double now_ms_ = 0.0;
  EventId next_id_ = 1;
  std::map<Key, Callback> queue_;
  std::map<EventId, double> due_;
};

/// One top-level operation; `a` and `b` are raw draws each operation maps
/// onto its own argument range.
struct Op {
  int kind;
  std::uint64_t a;
  std::uint64_t b;
};

std::vector<Op> random_script(std::uint64_t seed, std::size_t n) {
  vkey::Rng rng(seed);
  std::vector<Op> ops(n);
  for (Op& op : ops) {
    // Weighted toward scheduling so queues build up between the runs.
    const std::uint64_t r = rng.uniform_int(20);
    op.kind = r < 7 ? 0 : r < 10 ? 1 : r < 13 ? 2 : r < 15 ? 3
            : r < 17 ? 4 : r < 19 ? 5 : 6;
    op.a = rng.next_u64();
    op.b = rng.next_u64();
  }
  return ops;
}

/// Coarse delays (multiples of 2.5 ms from -5) so many events share a due
/// time and some delays are negative.
double coarse_delay(std::uint64_t r) {
  return static_cast<double>(r % 9) * 2.5 - 5.0;
}

/// Drives one clock through a script and logs everything observable.
template <typename Clock>
class Harness {
 public:
  std::vector<std::string> run(const std::vector<Op>& script) {
    for (const Op& op : script) {
      step(op);
      log("pending " + std::to_string(clock_.pending()) + " now " +
          std::to_string(clock_.now_ms()));
    }
    log("drained " + std::to_string(clock_.run_until_idle(1u << 20)));
    return log_;
  }

 private:
  void log(std::string line) { log_.push_back(std::move(line)); }

  /// An id to cancel: any id issued so far (live, fired or cancelled), or
  /// one never issued.
  std::uint64_t pick_id(std::uint64_t r) const {
    if (ids_.empty() || r % 8 == 0) return 1000000 + r % 7;
    return ids_[(r >> 3) % ids_.size()];
  }

  void add(std::uint64_t tag, double delay) {
    note_id(tag, clock_.schedule(delay, [this, tag] { fire(tag); }));
  }

  void note_id(std::uint64_t tag, std::uint64_t id) {
    ids_.push_back(id);
    id_of_.emplace(tag, id);
    log("schedule " + std::to_string(tag) + " -> " + std::to_string(id));
  }

  /// A callback's behaviour is a function of its tag alone, so both clocks
  /// see the same nested operations.
  void fire(std::uint64_t tag) {
    log("fire " + std::to_string(tag) + " at " +
        std::to_string(clock_.now_ms()));
    if (tag % 3 == 0 && depth_ < 6) {
      ++depth_;
      add(tag * 7 + 1, coarse_delay(tag));
      --depth_;
    }
    if (tag % 4 == 1) {
      log("inner cancel " + std::to_string(clock_.cancel(pick_id(tag))));
    }
    if (tag % 10 == 7) {
      // A running event is already off the queue.
      log("self cancel " + std::to_string(clock_.cancel(id_of_.at(tag))));
    }
  }

  void step(const Op& op) {
    switch (op.kind) {
      case 0:
        add(next_tag_++, coarse_delay(op.a));
        break;
      case 1: {
        // Absolute instants, some already in the past.
        const double due = clock_.now_ms() + coarse_delay(op.a) * 2.0;
        const std::uint64_t tag = next_tag_++;
        note_id(tag, clock_.schedule_at(due, [this, tag] { fire(tag); }));
        break;
      }
      case 2:
        log("cancel " + std::to_string(clock_.cancel(pick_id(op.a))));
        break;
      case 3:
        log("run_next " + std::to_string(clock_.run_next()));
        break;
      case 4:
        log("run_until " +
            std::to_string(clock_.run_until(clock_.now_ms() +
                                            coarse_delay(op.a) * 3.0)));
        break;
      case 5:
        log("run_until_idle " +
            std::to_string(clock_.run_until_idle(op.a % 6)));
        break;
      default:
        log("clear " + std::to_string(op.b % 4 == 0 ? clock_.clear() : 0));
        break;
    }
  }

  Clock clock_;
  std::vector<std::uint64_t> ids_;
  std::map<std::uint64_t, std::uint64_t> id_of_;  // tag -> event id
  std::vector<std::string> log_;
  std::uint64_t next_tag_ = 1;
  int depth_ = 0;
};

TEST(SimClockModel, SeededInterleavingsMatchTheMapScheduler) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::vector<Op> script = random_script(seed, 300);
    const auto want = Harness<MapClock>().run(script);
    const auto got = Harness<SimClock>().run(script);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " line " << i;
    }
  }
}

TEST(SimClockModel, CancelChurnWithoutRunningKeepsTheOrder) {
  // Schedule-then-cancel without ever running, so only cancels shrink the
  // heap: the survivors still fire in (due, id) order.
  SimClock clock;
  MapClock model;
  std::vector<int> fired, want;
  for (int i = 0; i < 5000; ++i) {
    const double delay = static_cast<double>(i % 13);
    const auto id = clock.schedule(delay, [&fired, i] { fired.push_back(i); });
    const auto mid = model.schedule(delay, [&want, i] { want.push_back(i); });
    ASSERT_EQ(id, mid);
    if (i % 50 != 0) {
      ASSERT_TRUE(clock.cancel(id));
      ASSERT_TRUE(model.cancel(mid));
    }
    ASSERT_EQ(clock.pending(), model.pending());
  }
  EXPECT_EQ(clock.pending(), 100u);
  EXPECT_EQ(clock.run_until_idle(), model.run_until_idle(1u << 20));
  EXPECT_EQ(fired, want);
}

}  // namespace
}  // namespace vkey::protocol
