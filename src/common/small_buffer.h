// Small-buffer container: values whose size the protocol bounds live
// inside their owner instead of in a heap block of their own.
//
// SmallBuffer<T, N> holds up to N trivially copyable elements inline and
// moves them to one heap block only when it must hold more. Keys (BitVec),
// secrets (crypto::SecretBuffer), frame payloads and MACs
// (protocol::Message), opened plaintexts, flight-event details and the
// reconciler's per-key-bit scratch are all bounded by the protocol, so an
// N that covers the bound makes them cost no allocation; larger contents
// (a long key stream, an 8 KiB data frame, a harness's long note) still
// work.
//
// It offers the part of std::vector's interface its callers use: size,
// data, iterators, indexing, assign, resize, reserve, push_back, append,
// clear and equality (with another SmallBuffer or any contiguous range of
// T, such as a std::vector), over contiguous storage, so it converts to
// std::span as a vector does. Where the elements live:
//   * growing beyond N (resize, reserve, push_back, append) moves them to
//     the heap, growing geometrically; shrinking in place keeps the block;
//   * replacing the whole content (assign, copy assignment, clear) puts a
//     content of at most N elements back inline and frees the block;
//   * a move takes the source's heap block as it is or copies its inline
//     bytes, and leaves the source empty and inline. The source's inline
//     bytes are not cleared: an owner of secrets wipes them (SecretBuffer
//     does).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string_view>
#include <type_traits>

namespace vkey {

template <typename T, std::size_t N>
class SmallBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallBuffer copies its elements as bytes");
  static_assert(N > 0, "SmallBuffer needs inline room");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallBuffer() noexcept = default;
  explicit SmallBuffer(std::size_t n, T value = T{}) { assign(n, value); }
  explicit SmallBuffer(std::span<const T> bytes) { assign(bytes); }
  SmallBuffer(std::initializer_list<T> init) { assign(init); }
  SmallBuffer(const SmallBuffer& other) { assign(other); }
  SmallBuffer(SmallBuffer&& other) noexcept { take(other); }
  ~SmallBuffer() { delete[] heap_; }

  SmallBuffer& operator=(const SmallBuffer& other) {
    if (this != &other) assign(other);
    return *this;
  }
  SmallBuffer& operator=(SmallBuffer&& other) noexcept {
    if (this != &other) {
      delete[] heap_;
      heap_ = nullptr;
      take(other);
    }
    return *this;
  }
  SmallBuffer& operator=(std::span<const T> bytes) {
    assign(bytes);
    return *this;
  }
  SmallBuffer& operator=(std::initializer_list<T> init) {
    assign(init);
    return *this;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept {
    return heap_ != nullptr ? heap_capacity_ : N;
  }
  /// True while the elements live inside the object.
  bool is_inline() const noexcept { return heap_ == nullptr; }

  T* data() noexcept { return heap_ != nullptr ? heap_ : inline_; }
  const T* data() const noexcept { return heap_ != nullptr ? heap_ : inline_; }
  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }
  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  T& back() noexcept { return data()[size_ - 1]; }
  const T& back() const noexcept { return data()[size_ - 1]; }

  /// The content as text (char buffers only).
  std::string_view str() const noexcept
    requires std::is_same_v<T, char>
  {
    return {data(), size_};
  }

  /// Replace the content with `bytes`, which may lie in this buffer.
  void assign(std::span<const T> bytes) {
    const std::size_t n = bytes.size();
    if (n <= N) {
      T* const old = heap_;
      copy_bytes(inline_, bytes.data(), n);
      heap_ = nullptr;
      delete[] old;
    } else if (heap_ != nullptr && n <= heap_capacity_) {
      copy_bytes(heap_, bytes.data(), n);
    } else {
      T* const block = new T[n];
      copy_bytes(block, bytes.data(), n);
      delete[] heap_;
      heap_ = block;
      heap_capacity_ = n;
    }
    size_ = n;
  }
  void assign(std::initializer_list<T> init) {
    assign(std::span<const T>(init.begin(), init.size()));
  }
  /// Replace the content with `n` copies of `value`.
  void assign(std::size_t n, T value) {
    if (n <= N || n > capacity()) clear();
    if (n > capacity()) {
      heap_ = new T[n];
      heap_capacity_ = n;
    }
    std::fill_n(data(), n, value);
    size_ = n;
  }

  /// Room for `n` elements, so growing up to `n` allocates at most once.
  void reserve(std::size_t n) {
    if (n > capacity()) grow(n);
  }
  /// Shrink, or grow with copies of `value`.
  void resize(std::size_t n, T value = T{}) {
    reserve(n);
    if (n > size_) std::fill(data() + size_, data() + n, value);
    size_ = n;
  }
  void push_back(T value) {
    if (size_ == capacity()) grow(2 * size_);
    data()[size_++] = value;
  }
  /// Append `bytes`, which may lie in this buffer.
  void append(std::span<const T> bytes) {
    const std::size_t n = size_ + bytes.size();
    if (n > capacity()) {
      const std::size_t room = std::max(n, 2 * size_);
      T* const block = new T[room];
      copy_bytes(block, data(), size_);
      copy_bytes(block + size_, bytes.data(), bytes.size());
      adopt(block, room);
    } else {
      copy_bytes(data() + size_, bytes.data(), bytes.size());
    }
    size_ = n;
  }
  /// Empty, and back inline.
  void clear() noexcept {
    delete[] heap_;
    heap_ = nullptr;
    size_ = 0;
  }

  friend bool operator==(const SmallBuffer& a, const SmallBuffer& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const SmallBuffer& a, std::span<const T> b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  /// memmove() of `n` elements that accepts an empty range at a null
  /// pointer.
  static void copy_bytes(T* to, const T* from, std::size_t n) noexcept {
    if (n != 0) std::memmove(to, from, n * sizeof(T));
  }
  /// Move the content into a heap block of `n` >= size() elements.
  void grow(std::size_t n) {
    T* const block = new T[n];
    copy_bytes(block, data(), size_);
    adopt(block, n);
  }
  void adopt(T* block, std::size_t n) noexcept {
    delete[] heap_;
    heap_ = block;
    heap_capacity_ = n;
  }
  void take(SmallBuffer& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      heap_capacity_ = other.heap_capacity_;
      other.heap_ = nullptr;
    } else {
      copy_bytes(inline_, other.inline_, other.size_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  T* heap_ = nullptr;  ///< the heap block, or nullptr while inline
  std::size_t size_ = 0;
  std::size_t heap_capacity_ = 0;
  T inline_[N]{};
};

}  // namespace vkey
