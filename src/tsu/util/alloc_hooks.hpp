// Global operator new/delete replacement that counts heap allocations -
// the measurement primitive behind the zero-allocation regression tests
// and the benchmark's allocation figures (perfbench/).
//
// IMPORTANT: include this header in EXACTLY ONE translation unit of a
// binary (each test/bench executable is a single TU, so its main source
// file). Including it twice in one binary is an ODR violation; including
// it in the library would silently impose the hooks on every consumer.
//
// The hooks forward to malloc/free (so sanitizers keep interposing at the
// malloc layer underneath) and bump a relaxed atomic counter. Counting is
// process-wide: measurements must bracket a window where only the code
// under test runs.
//
// On glibc the hooks additionally track live heap bytes: every new adds
// malloc_usable_size() of the block, every delete subtracts it. The soak
// test uses live_bytes() as a steady-state watermark - a leak shows up as
// monotonic growth window-over-window even when allocation *counts* look
// flat (e.g. a container that keeps growing in-place). Where
// malloc_usable_size is unavailable the byte counters read 0 and callers
// must skip watermark assertions.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__has_include)
#if __has_include(<malloc.h>) && defined(__GLIBC__)
#define TSU_ALLOC_HOOKS_HAVE_USABLE_SIZE 1
#include <malloc.h>
#endif
#endif
#ifndef TSU_ALLOC_HOOKS_HAVE_USABLE_SIZE
#define TSU_ALLOC_HOOKS_HAVE_USABLE_SIZE 0
#endif

namespace tsu::alloc_hooks {

inline std::atomic<std::uint64_t> g_allocations{0};
inline std::atomic<std::uint64_t> g_live_bytes{0};

// Total operator-new calls since process start.
inline std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

// Bytes currently allocated through operator new (usable sizes, glibc
// only - 0 elsewhere). Process-wide, so bracket a quiesced window.
inline std::uint64_t live_bytes() noexcept {
  return g_live_bytes.load(std::memory_order_relaxed);
}

// True when live_bytes() actually tracks the heap (glibc).
inline constexpr bool tracks_live_bytes() noexcept {
  return TSU_ALLOC_HOOKS_HAVE_USABLE_SIZE != 0;
}

inline void note_alloc(void* p) noexcept {
#if TSU_ALLOC_HOOKS_HAVE_USABLE_SIZE
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
#else
  (void)p;
#endif
}

inline void note_free(void* p) noexcept {
#if TSU_ALLOC_HOOKS_HAVE_USABLE_SIZE
  if (p != nullptr)
    g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
#else
  (void)p;
#endif
}

inline void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

inline void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = align;
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

inline void counted_free(void* p) noexcept {
  note_free(p);
  std::free(p);
}

}  // namespace tsu::alloc_hooks

void* operator new(std::size_t size) {
  return tsu::alloc_hooks::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return tsu::alloc_hooks::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return tsu::alloc_hooks::counted_alloc_aligned(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return tsu::alloc_hooks::counted_alloc_aligned(
      size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tsu::alloc_hooks::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tsu::alloc_hooks::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { tsu::alloc_hooks::counted_free(p); }
void operator delete[](void* p) noexcept { tsu::alloc_hooks::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  tsu::alloc_hooks::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  tsu::alloc_hooks::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  tsu::alloc_hooks::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  tsu::alloc_hooks::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tsu::alloc_hooks::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  tsu::alloc_hooks::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tsu::alloc_hooks::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tsu::alloc_hooks::counted_free(p);
}
