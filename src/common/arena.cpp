#include "common/arena.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/rt_annotations.hpp"

namespace mute {

namespace detail {

namespace {

// Thread-local routing target. Plain pointer (zero-init, no dynamic init)
// so it is safe to consult from operator new at any point in the program's
// lifetime, including static initialization of other TUs.
thread_local MonotonicArena* t_active_arena = nullptr;

// Registered slab ranges, scanned by operator delete. Writes are rare
// (pool construction/destruction); reads happen on every delete, so the
// table is a fixed array of atomics — no locks, no allocation. Slot
// ownership is a separate `claimed` flag: a registrar may only touch
// `base`/`size` after winning the claim, so concurrent registrations can
// never clobber an already-published region's extent. `base` is published
// with release ordering after `size` so a reader that sees the base also
// sees the matching size.
constexpr std::size_t kMaxRegions = 16;

struct Region {
  std::atomic<bool> claimed{false};
  std::atomic<const std::byte*> base{nullptr};
  std::atomic<std::size_t> size{0};
};

Region g_regions[kMaxRegions];

}  // namespace

void* arena_try_alloc(std::size_t size, std::size_t align) noexcept {
  MonotonicArena* arena = t_active_arena;
  if (arena == nullptr) return nullptr;
  return arena->allocate(size, align);
}

bool arena_try_alloc_nothrow(std::size_t size, std::size_t align,
                             void** out) noexcept {
  MonotonicArena* arena = t_active_arena;
  if (arena == nullptr) return false;
  // Nothrow new keeps its standard contract under arena routing: on
  // exhaustion the caller gets nullptr (checkable), not the abort the
  // throwing paths use.
  *out = arena->try_allocate(size, align);
  return true;
}

bool arena_owns(const void* p) noexcept {
  if (p == nullptr) return false;
  const auto* b = static_cast<const std::byte*>(p);
  for (const Region& r : g_regions) {
    const std::byte* base = r.base.load(std::memory_order_acquire);
    if (base == nullptr) continue;
    if (b >= base && b < base + r.size.load(std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void register_arena_region(const void* base, std::size_t size) {
  ensure(base != nullptr && size > 0, "arena region must be non-empty");
  const auto* bytes = static_cast<const std::byte*>(base);
  for (Region& r : g_regions) {
    // Win the slot first; only the winner may write size/base, so a
    // registration probing past occupied slots cannot corrupt them.
    if (r.claimed.exchange(true, std::memory_order_acquire)) continue;
    r.size.store(size, std::memory_order_relaxed);
    r.base.store(bytes, std::memory_order_release);
    return;
  }
  MUTE_ASSERT(false, "arena region table full (more than kMaxRegions "
                     "concurrent ArenaPools)");
}

void unregister_arena_region(const void* base) {
  for (Region& r : g_regions) {
    if (r.base.load(std::memory_order_acquire) == base) {
      // Retire base/size before releasing the claim: the release store on
      // `claimed` orders them, so the next winner starts from a clean slot.
      r.base.store(nullptr, std::memory_order_relaxed);
      r.size.store(0, std::memory_order_relaxed);
      r.claimed.store(false, std::memory_order_release);
      return;
    }
  }
}

}  // namespace detail

MonotonicArena::MonotonicArena(std::byte* base, std::size_t capacity,
                               const char* name)
    : base_(base), capacity_(capacity), name_(name) {}

namespace {

MUTE_RT_ESCAPE("arena exhaustion failure path; the process is aborting")
[[noreturn]] void arena_exhausted(const char* name, std::size_t size,
                                  std::size_t offset, std::size_t capacity) {
  std::fprintf(stderr,
               "[MonotonicArena] '%s' exhausted: need %zu B at offset %zu, "
               "capacity %zu B\n",
               name, size, offset, capacity);
  std::fflush(stderr);
  MUTE_ASSERT(false, "monotonic arena exhausted (raise the per-tenant "
                     "capacity; see high_water())");
  std::abort();  // unreachable: MUTE_ASSERT(false) does not return
}

}  // namespace

void* MonotonicArena::try_allocate(std::size_t size,
                                   std::size_t align) noexcept {
  // Bump with alignment; wait-free, single-owner. Alignment is applied to
  // the ABSOLUTE address, not the offset from base_: a slab cut at a
  // non-multiple-of-align stride (or an over-aligned operator new) still
  // gets correctly aligned pointers as long as capacity allows.
  const auto addr = reinterpret_cast<std::uintptr_t>(base_) + used_;
  const std::uintptr_t mask = static_cast<std::uintptr_t>(align) - 1u;
  const std::size_t aligned =
      used_ + static_cast<std::size_t>(((addr + mask) & ~mask) - addr);
  if (aligned + size > capacity_ || aligned + size < aligned ||
      aligned < used_) [[unlikely]] {
    return nullptr;
  }
  used_ = aligned + size;
  if (used_ > high_water_) high_water_ = used_;
  ++allocation_count_;
  return base_ + aligned;
}

void* MonotonicArena::allocate(std::size_t size, std::size_t align) noexcept {
  // The exhaustion abort is the contract: a tenant whose arena is
  // undersized must fail loudly and deterministically at the offending
  // allocation, not corrupt a neighbor.
  void* p = try_allocate(size, align);
  if (p == nullptr) [[unlikely]] {
    arena_exhausted(name_, size, used_, capacity_);
  }
  return p;
}

namespace {

// Tenant stride rounded up so every arena base (slab_ + i * bytes_) keeps
// malloc's fundamental alignment; requests over-aligned beyond this are
// still served correctly by the absolute-address fixup in try_allocate.
constexpr std::size_t round_up_to_max_align(std::size_t bytes) noexcept {
  constexpr std::size_t a = alignof(std::max_align_t);
  return (bytes + a - 1) & ~(a - 1);
}

}  // namespace

ArenaPool::ArenaPool(std::size_t tenant_bytes, std::size_t tenant_count)
    : bytes_(round_up_to_max_align(tenant_bytes)), count_(tenant_count) {
  ensure(tenant_bytes > 0 && tenant_count > 0,
         "ArenaPool needs positive tenant size and count");
  // The slab comes from malloc, NOT operator new: it must bypass both the
  // allocation guard bookkeeping and any arena routing active on the
  // constructing thread.
  slab_ = static_cast<std::byte*>(std::malloc(bytes_ * count_));
  ensure(slab_ != nullptr, "ArenaPool slab allocation failed");
  arenas_ = static_cast<MonotonicArena*>(
      std::malloc(sizeof(MonotonicArena) * count_));
  ensure(arenas_ != nullptr, "ArenaPool arena table allocation failed");
  for (std::size_t i = 0; i < count_; ++i) {
    new (arenas_ + i) MonotonicArena(slab_ + i * bytes_, bytes_, "tenant");
  }
  detail::register_arena_region(slab_, bytes_ * count_);
}

ArenaPool::~ArenaPool() {
  detail::unregister_arena_region(slab_);
  for (std::size_t i = 0; i < count_; ++i) arenas_[i].~MonotonicArena();
  std::free(arenas_);
  std::free(slab_);
}

MonotonicArena& ArenaPool::arena(std::size_t index) {
  ensure(index < count_, "arena index out of range");
  return arenas_[index];
}

const MonotonicArena& ArenaPool::arena(std::size_t index) const {
  ensure(index < count_, "arena index out of range");
  return arenas_[index];
}

ScopedArenaAlloc::ScopedArenaAlloc(MonotonicArena& arena) noexcept
    : prev_(detail::t_active_arena) {
  detail::t_active_arena = &arena;
}

ScopedArenaAlloc::~ScopedArenaAlloc() { detail::t_active_arena = prev_; }

bool ScopedArenaAlloc::installed() noexcept {
  return detail::t_active_arena != nullptr;
}

bool ScopedArenaAlloc::routing_enabled() noexcept {
  return RtAllocationGuard::interposition_enabled();
}

}  // namespace mute
