// Bounded FIFO ring: the one eviction policy shared by the trace log, the
// per-attempt flight recorder and the telemetry sampler.
//
// push() appends until the ring holds `capacity` entries; after that each
// push overwrites the oldest entry in place and counts it as dropped, so the
// ring always holds the newest `capacity` entries and exports can be honest
// about what fell off. A capacity of 0 keeps nothing and counts every push
// as dropped. The first push reserves a first block of
// min(capacity, kFirstBlock) entries, so a ring that stays within it (a
// flight recorder's usual attempt) allocates once; past it, storage grows
// by push_back until full, then never reallocates.
//
// Not thread-safe: TraceLog wraps its ring in a mutex; the flight recorder
// and the sampler are single-writer by design.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace vkey {

template <typename T>
class BoundedRing {
 public:
  /// Entries the first push reserves room for (capped at the capacity).
  static constexpr std::size_t kFirstBlock = 64;

  explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return items_.size(); }
  std::size_t dropped() const noexcept { return dropped_; }

  void push(T item) {
    if (capacity_ == 0) {
      ++dropped_;
    } else if (items_.size() < capacity_) {
      if (items_.capacity() == 0) {
        items_.reserve(std::min(capacity_, kFirstBlock));
      }
      items_.push_back(std::move(item));
    } else {
      items_[head_] = std::move(item);
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
      ++dropped_;
    }
  }

  /// Visit entries oldest -> newest.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = head_; i < items_.size(); ++i) f(items_[i]);
    for (std::size_t i = 0; i < head_; ++i) f(items_[i]);
  }

  /// Copy of the entries, oldest -> newest.
  std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(items_.size());
    for_each([&out](const T& item) { out.push_back(item); });
    return out;
  }

  /// Empty the ring and reset the drop count (capacity unchanged).
  void clear() {
    items_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  /// Resize to `n`, keeping the newest min(size, n) entries in order; the
  /// evicted ones count as dropped.
  void set_capacity(std::size_t n) {
    // Linearize (oldest first) so the growing phase appends in order again.
    std::rotate(items_.begin(),
                items_.begin() + static_cast<std::ptrdiff_t>(head_),
                items_.end());
    head_ = 0;
    const std::size_t evict = items_.size() > n ? items_.size() - n : 0;
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<std::ptrdiff_t>(evict));
    dropped_ += evict;
    capacity_ = n;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  // oldest entry once the ring has wrapped
  std::size_t capacity_;
  std::size_t dropped_ = 0;
};

}  // namespace vkey
