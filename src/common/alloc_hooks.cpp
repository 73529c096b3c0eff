// Global operator new/delete replacements reporting into alloc_stats.
//
// Deliberately NOT part of vkey_common: replacing the global allocator is a
// per-binary decision. The `vkey_alloc_hooks` OBJECT library carries exactly
// this translation unit, and only the binaries that want exact heap
// accounting (bench_soak, test_alloc_stats) link it — an archive would let
// the linker skip the unreferenced replacement symbols, an object library
// cannot be skipped.
//
// Replaced: the plain and array forms plus the sized deletes. Over-aligned
// and nothrow forms fall through to the default implementations and go
// uncounted — nothing in this tree allocates over-aligned, and the
// accounting is for steady-state growth, not a malloc ledger.
#include <cstdlib>
#include <new>

#include "common/alloc_stats.h"

void* operator new(std::size_t size) {
  vkey::alloc_stats::on_alloc(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  vkey::alloc_stats::on_alloc(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept {
  if (p != nullptr) vkey::alloc_stats::on_free();
  std::free(p);
}

void operator delete[](void* p) noexcept {
  if (p != nullptr) vkey::alloc_stats::on_free();
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr) vkey::alloc_stats::on_free();
  std::free(p);
}

void operator delete[](void* p, std::size_t) noexcept {
  if (p != nullptr) vkey::alloc_stats::on_free();
  std::free(p);
}
