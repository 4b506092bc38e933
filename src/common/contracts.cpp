#include "common/contracts.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/arena.hpp"

namespace mute {
namespace detail {

namespace {

// Thread-local allocation bookkeeping. Plain integral/pointer types only:
// zero-initialized thread_locals need no dynamic init, so they are safe to
// touch from operator new during static initialization of other TUs.
thread_local std::size_t t_alloc_count = 0;
thread_local int t_guard_depth = 0;
thread_local bool t_abort_on_alloc = false;
thread_local const char* t_section = nullptr;

}  // namespace

[[noreturn]] void contract_failure(const char* kind, const char* expr,
                                   const char* msg, const char* file,
                                   int line) noexcept {
  std::fprintf(stderr, "[%s] %s:%d: %s: %s\n", kind, file, line, expr, msg);
  std::fflush(stderr);
  std::abort();
}

#if defined(MUTE_RT_GUARD_ENABLED)

namespace {

void note_allocation() noexcept {
  ++t_alloc_count;
  if (t_guard_depth > 0 && t_abort_on_alloc) [[unlikely]] {
    // No allocation is permitted here: format with a fixed stack buffer.
    std::fprintf(stderr,
                 "[RtAllocationGuard] heap allocation inside real-time "
                 "section '%s'\n",
                 t_section != nullptr ? t_section : "rt-section");
    std::fflush(stderr);
    std::abort();
  }
}

void* checked_alloc(std::size_t size) {
  note_allocation();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned_alloc(std::size_t size, std::size_t alignment) {
  note_allocation();
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded != 0 ? rounded : alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

#endif  // MUTE_RT_GUARD_ENABLED

}  // namespace detail

RtAllocationGuard::RtAllocationGuard(Mode mode, const char* section) noexcept
    : entry_count_(detail::t_alloc_count),
      prev_mode_(detail::t_abort_on_alloc ? Mode::kAbort : Mode::kCount),
      prev_section_(detail::t_section) {
  ++detail::t_guard_depth;
  detail::t_abort_on_alloc = (mode == Mode::kAbort);
  detail::t_section = section;
}

RtAllocationGuard::~RtAllocationGuard() {
  --detail::t_guard_depth;
  detail::t_abort_on_alloc = (prev_mode_ == Mode::kAbort) &&
                             detail::t_guard_depth > 0;
  detail::t_section = prev_section_;
}

std::size_t RtAllocationGuard::allocations_since_entry() const noexcept {
  return detail::t_alloc_count - entry_count_;
}

bool RtAllocationGuard::interposition_enabled() noexcept {
#if defined(MUTE_RT_GUARD_ENABLED)
  return true;
#else
  return false;
#endif
}

}  // namespace mute

#if defined(MUTE_RT_GUARD_ENABLED)

// Program-wide operator new/delete replacement (one definition per binary,
// provided by mute_common). Two front doors, checked in order:
//
//   1. Arena routing (common/arena.hpp): when a ScopedArenaAlloc is
//      installed on this thread, the allocation is a wait-free bump in the
//      tenant's arena — no malloc, no guard bookkeeping (arena allocs are
//      not heap traffic; steady-state cleanliness is about the global
//      heap). Deletes of arena pointers are no-ops: monotonic arenas are
//      reclaimed wholesale by reset().
//   2. Plain malloc/free, so sanitizers keep full visibility; the only
//      addition is the thread-local counter consulted by RtAllocationGuard.

void* operator new(std::size_t size) {
  if (void* p = mute::detail::arena_try_alloc(size, alignof(std::max_align_t)))
    return p;
  return mute::detail::checked_alloc(size);
}

void* operator new[](std::size_t size) {
  if (void* p = mute::detail::arena_try_alloc(size, alignof(std::max_align_t)))
    return p;
  return mute::detail::checked_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  if (void* p = mute::detail::arena_try_alloc(
          size, static_cast<std::size_t>(alignment)))
    return p;
  return mute::detail::checked_aligned_alloc(
      size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  if (void* p = mute::detail::arena_try_alloc(
          size, static_cast<std::size_t>(alignment)))
    return p;
  return mute::detail::checked_aligned_alloc(
      size, static_cast<std::size_t>(alignment));
}

// The nothrow forms keep their standard contract under arena routing: on
// arena exhaustion they return nullptr (no abort, no silent heap fallback
// that would break per-tenant isolation).

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = nullptr;
  if (mute::detail::arena_try_alloc_nothrow(size, alignof(std::max_align_t),
                                            &p))
    return p;
  try {
    return mute::detail::checked_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  void* p = nullptr;
  if (mute::detail::arena_try_alloc_nothrow(size, alignof(std::max_align_t),
                                            &p))
    return p;
  try {
    return mute::detail::checked_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

namespace {
inline void mute_release(void* p) noexcept {
  if (mute::detail::arena_owns(p)) return;  // monotonic: reclaimed by reset()
  std::free(p);
}
}  // namespace

void operator delete(void* p) noexcept { mute_release(p); }
void operator delete[](void* p) noexcept { mute_release(p); }
void operator delete(void* p, std::size_t) noexcept { mute_release(p); }
void operator delete[](void* p, std::size_t) noexcept { mute_release(p); }
void operator delete(void* p, std::align_val_t) noexcept { mute_release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { mute_release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  mute_release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  mute_release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  mute_release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  mute_release(p);
}

#endif  // MUTE_RT_GUARD_ENABLED
