#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rt_annotations.hpp"

/// Per-tenant arena allocation for the fleet runtime (DESIGN.md §14).
///
/// The edge-service fleet shards thousands of `MuteDevice` instances across
/// a fixed worker pool. Device construction, the amortized control events
/// inside `tick()` (calibration fit, selection rounds, handoffs), and
/// teardown all allocate — and in a fleet those calls run on *worker
/// threads*, where contending on the global heap serializes every core on
/// the allocator lock and leaves the steady state hostage to malloc's
/// worst case. The fix is ownership-aligned memory: each tenant gets a
/// private monotonic arena, and while a worker is acting for that tenant a
/// `ScopedArenaAlloc` routes the thread's operator new into it.
///
///   MonotonicArena   bump allocator over a fixed byte range; individual
///                    frees are no-ops, reset() reclaims everything at
///                    once (exactly the lifetime a tenant has: admit ->
///                    serve -> evict). Exhaustion is a loud MUTE_ASSERT
///                    abort naming the arena — never UB, never a silent
///                    fallback that would hide an undersized capacity.
///   ArenaPool        one slab, `tenant_count` equal arenas. The slab's
///                    address range is registered so the program-wide
///                    operator delete (contracts.cpp) recognizes arena
///                    pointers and skips free() — arena-backed objects can
///                    be destroyed anywhere, scope installed or not.
///   ScopedArenaAlloc RAII routing switch: while in scope, this thread's
///                    operator new draws from the given arena. Nesting
///                    restores the previous target. When the interposition
///                    is compiled out (MUTE_RT_GUARD=OFF) routing is inert
///                    and everything falls back to the global heap —
///                    functionally identical, just not isolated.
///
/// Thread-safety contract: a MonotonicArena is single-owner — at most one
/// thread allocates from it at a time, and handing an arena between
/// threads requires a happens-before edge (the fleet's block barrier
/// provides it). The region registry consulted by operator delete is
/// lock-free and safe from any thread at any time.

namespace mute {

class MonotonicArena {
 public:
  MonotonicArena() = default;

  /// View over [base, base + capacity). The arena does not own the bytes;
  /// ArenaPool (or a test) does.
  MonotonicArena(std::byte* base, std::size_t capacity, const char* name);

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;
  MonotonicArena(MonotonicArena&&) = delete;
  MonotonicArena& operator=(MonotonicArena&&) = delete;

  /// Bump-allocate `size` bytes at `align`. Aborts via MUTE_ASSERT when the
  /// arena is exhausted (deterministic, names the arena) — size capacities
  /// from the soak high-water mark, don't catch this.
  MUTE_RT_SAFE void* allocate(std::size_t size, std::size_t align) noexcept;

  /// Like allocate(), but returns nullptr on exhaustion instead of
  /// aborting. This is the path operator new(nothrow) uses, preserving its
  /// standard "check the pointer" contract under arena routing.
  MUTE_RT_SAFE void* try_allocate(std::size_t size,
                                  std::size_t align) noexcept;

  /// Reclaim everything allocated so far (no destructors run — callers
  /// destroy tenant objects first; their deletes are no-ops by design).
  /// Also clears the accounting counters: an arena is recycled per tenant,
  /// so used()/high_water()/allocation_count() always describe the current
  /// occupant only.
  void reset() noexcept {
    used_ = 0;
    high_water_ = 0;
    allocation_count_ = 0;
  }

  bool contains(const void* p) const noexcept {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= base_ && b < base_ + capacity_;
  }

  std::size_t used() const noexcept { return used_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t allocation_count() const noexcept { return allocation_count_; }
  /// Largest `used()` observed since construction or the last reset() —
  /// the capacity-sizing signal surfaced by the fleet soak report.
  std::size_t high_water() const noexcept { return high_water_; }
  const char* name() const noexcept { return name_; }

 private:
  std::byte* base_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
  std::size_t allocation_count_ = 0;
  const char* name_ = "arena";
};

/// One malloc'd slab cut into `tenant_count` arenas of `tenant_bytes`
/// each (rounded up to alignof(std::max_align_t) so every tenant base
/// keeps malloc's fundamental alignment; tenant_bytes() reports the
/// rounded stride), registered with the operator-delete interposition for
/// its whole lifetime. Arena indices map 1:1 to fleet tenant slots.
class ArenaPool {
 public:
  ArenaPool(std::size_t tenant_bytes, std::size_t tenant_count);
  ~ArenaPool();

  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  MonotonicArena& arena(std::size_t index);
  const MonotonicArena& arena(std::size_t index) const;
  std::size_t tenant_count() const noexcept { return count_; }
  std::size_t tenant_bytes() const noexcept { return bytes_; }

 private:
  std::byte* slab_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t count_ = 0;
  // Arenas are stored out-of-line (not std::vector<MonotonicArena> — the
  // type is intentionally pinned/non-movable).
  MonotonicArena* arenas_ = nullptr;
};

/// While alive, operator new on THIS thread allocates from `arena`.
///
/// Exhaustion semantics while a scope is installed: the throwing operator
/// new forms inherit the arena's fail-loud contract (MUTE_ASSERT abort
/// naming the arena); operator new(std::nothrow) keeps its standard
/// contract and returns nullptr instead — it never falls back to the
/// global heap, which would silently break per-tenant isolation.
class ScopedArenaAlloc {
 public:
  explicit ScopedArenaAlloc(MonotonicArena& arena) noexcept;
  ~ScopedArenaAlloc();

  ScopedArenaAlloc(const ScopedArenaAlloc&) = delete;
  ScopedArenaAlloc& operator=(const ScopedArenaAlloc&) = delete;

  /// Whether installing a scope actually reroutes operator new (false when
  /// the interposition is compiled out; tests gate on this like they do on
  /// RtAllocationGuard::interposition_enabled()).
  static bool routing_enabled() noexcept;

  /// Whether a scope is installed on the calling thread.
  static bool installed() noexcept;

 private:
  MonotonicArena* prev_;
};

namespace detail {

/// Allocation hook for the interposed operator new: returns nullptr when no
/// arena is installed on this thread (caller falls through to malloc).
MUTE_RT_SAFE void* arena_try_alloc(std::size_t size,
                                   std::size_t align) noexcept;

/// Hook for operator new(nothrow): false when no arena is installed (caller
/// falls through to the heap); true when routed, with *out either the arena
/// block or nullptr on exhaustion (no abort — see ScopedArenaAlloc docs).
MUTE_RT_SAFE bool arena_try_alloc_nothrow(std::size_t size, std::size_t align,
                                          void** out) noexcept;

/// Deallocation hook for the interposed operator delete: true when `p`
/// points into any registered arena slab (the delete is then a no-op).
MUTE_RT_SAFE bool arena_owns(const void* p) noexcept;

// The registry stores an address range and never reads the (deliberately
// uninitialized) bytes behind it; the access attribute records that so
// -Wmaybe-uninitialized doesn't flag registering a fresh malloc'd slab.
#if defined(__GNUC__) && !defined(__clang__)
#define MUTE_ARENA_ADDR_ONLY __attribute__((access(none, 1)))
#else
#define MUTE_ARENA_ADDR_ONLY
#endif

/// Slab registry (bounded, lock-free reads). register_ aborts when the
/// fixed slot table is full — more concurrent pools than slots is a
/// design error, not a runtime condition.
MUTE_ARENA_ADDR_ONLY void register_arena_region(const void* base,
                                                std::size_t size);
MUTE_ARENA_ADDR_ONLY void unregister_arena_region(const void* base);

}  // namespace detail

}  // namespace mute
