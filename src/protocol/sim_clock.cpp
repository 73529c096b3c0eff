#include "protocol/sim_clock.h"

#include <algorithm>

namespace vkey::protocol {

SimClock::EventId SimClock::schedule(double delay_ms, Callback fn) {
  if (delay_ms < 0.0) delay_ms = 0.0;
  return schedule_at(now_ms_ + delay_ms, std::move(fn));
}

SimClock::EventId SimClock::schedule_at(double due_ms, Callback fn) {
  if (due_ms < now_ms_) due_ms = now_ms_;
  const EventId id = next_id_++;
  if (heap_.capacity() == 0) heap_.reserve(kInitialEvents);
  heap_.push_back(Event{due_ms, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), fires_after);
  return id;
}

std::size_t SimClock::clear() {
  const std::size_t dropped = heap_.size();
  heap_.clear();  // keeps the capacity for the next attempt
  return dropped;
}

bool SimClock::cancel(EventId id) {
  const auto it = std::find_if(heap_.begin(), heap_.end(),
                               [id](const Event& e) { return e.id == id; });
  if (it == heap_.end()) return false;
  heap_.erase(it);
  std::make_heap(heap_.begin(), heap_.end(), fires_after);
  return true;
}

bool SimClock::run_next() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), fires_after);
  const double due_ms = heap_.back().due_ms;
  Callback fn = std::move(heap_.back().fn);
  heap_.pop_back();
  now_ms_ = due_ms;  // time never moves backwards: due >= schedule time
  fn();
  return true;
}

std::size_t SimClock::run_until(double until_ms) {
  std::size_t ran = 0;
  while (!heap_.empty() && heap_.front().due_ms <= until_ms) {
    run_next();
    ++ran;
  }
  if (until_ms > now_ms_) now_ms_ = until_ms;
  return ran;
}

std::size_t SimClock::run_until_idle(std::size_t max_events) {
  std::size_t ran = 0;
  while (ran < max_events && run_next()) ++ran;
  return ran;
}

}  // namespace vkey::protocol
