#pragma once

#include <cmath>
#include <cstddef>

#include "common/rt_annotations.hpp"

/// Runtime contracts for the audio hot path.
///
/// MUTE's pipeline has a hard per-tick deadline: the LANC controller must
/// emit an anti-noise sample within one audio tick of the forwarded
/// reference, so the most dangerous bug classes here are silent ones —
/// NaN/Inf propagating through adaptive weights, out-of-range indices, and
/// hidden heap allocations inside per-sample code. This header provides the
/// machine-checked contract vocabulary used across `src/`:
///
///   MUTE_ASSERT(cond, msg)        always-on invariant; prints and aborts.
///   MUTE_DCHECK(cond, msg)        debug-only invariant (free in release).
///   MUTE_CHECK_FINITE(value, msg) always-on NaN/Inf rejection, used at the
///                                 entry of every per-sample API.
///   MUTE_RT_SCOPE(name)           debug-only no-allocation scope: any heap
///                                 allocation inside it aborts.
///
/// Contract failures abort (they do not throw): a violated contract means
/// the process state is already wrong, aborting keeps the failure local to
/// the offending tick, and it is what sanitizer CI and gtest death tests
/// expect. Use `mute::ensure` (common/error.hpp) for recoverable
/// caller-facing precondition errors instead.
///
/// `MUTE_DCHECKS_ENABLED` follows NDEBUG by default and can be forced from
/// the build system.

#if !defined(MUTE_DCHECKS_ENABLED)
#if defined(NDEBUG)
#define MUTE_DCHECKS_ENABLED 0
#else
#define MUTE_DCHECKS_ENABLED 1
#endif
#endif

namespace mute {

namespace detail {

/// Prints `[kind] file:line: expr: msg` to stderr and aborts.
MUTE_RT_ESCAPE(
    "contract-abort path: fprintf+abort runs only when the process is "
    "already dying on a failed MUTE_ASSERT/MUTE_CHECK_FINITE")
[[noreturn]] void contract_failure(const char* kind, const char* expr,
                                   const char* msg, const char* file,
                                   int line) noexcept;

}  // namespace detail

/// Counts (and optionally forbids) heap allocations on the current thread
/// while in scope. Backed by global operator new/delete interposition
/// compiled into mute_common; nesting is allowed, the innermost guard's
/// mode wins.
///
///   {
///     RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "tick");
///     y = lanc.tick(x);
///     MUTE_ASSERT(guard.allocations_since_entry() == 0, "tick allocated");
///   }
///
/// In kAbort mode the offending allocation itself aborts with the section
/// name, which pinpoints the call site under a debugger or sanitizer.
/// When the interposition is compiled out (MUTE_RT_GUARD=OFF), guards are
/// inert: counts stay zero and nothing aborts — check interposition_enabled()
/// in tests that rely on detection.
class RtAllocationGuard {
 public:
  enum class Mode { kAbort, kCount };

  explicit RtAllocationGuard(Mode mode = Mode::kAbort,
                             const char* section = "rt-section") noexcept;
  ~RtAllocationGuard();

  RtAllocationGuard(const RtAllocationGuard&) = delete;
  RtAllocationGuard& operator=(const RtAllocationGuard&) = delete;

  /// Heap allocations on this thread since the guard was entered.
  std::size_t allocations_since_entry() const noexcept;

  /// Whether the operator new/delete interposition is compiled in.
  static bool interposition_enabled() noexcept;

 private:
  std::size_t entry_count_;
  Mode prev_mode_;
  const char* prev_section_;
};

}  // namespace mute

#define MUTE_ASSERT(cond, msg)                                          \
  do {                                                                  \
    if (!(cond)) [[unlikely]] {                                         \
      ::mute::detail::contract_failure("MUTE_ASSERT", #cond, (msg),     \
                                       __FILE__, __LINE__);             \
    }                                                                   \
  } while (false)

/// NaN/Inf rejection at per-sample API entry points. Always on: one
/// std::isfinite per sample is noise next to the tap loop it protects, and
/// a NaN that reaches the adaptive weights poisons every future output.
#define MUTE_CHECK_FINITE(value, msg)                                   \
  do {                                                                  \
    if (!std::isfinite(static_cast<double>(value))) [[unlikely]] {      \
      ::mute::detail::contract_failure("MUTE_CHECK_FINITE",             \
                                       #value " is not finite", (msg),  \
                                       __FILE__, __LINE__);             \
    }                                                                   \
  } while (false)

#if MUTE_DCHECKS_ENABLED
#define MUTE_DCHECK(cond, msg) MUTE_ASSERT(cond, msg)
#define MUTE_RT_SCOPE(name)                                  \
  ::mute::RtAllocationGuard mute_rt_scope_guard_ {           \
    ::mute::RtAllocationGuard::Mode::kAbort, (name)          \
  }
#else
#define MUTE_DCHECK(cond, msg) \
  do {                         \
  } while (false)
#define MUTE_RT_SCOPE(name) \
  do {                      \
  } while (false)
#endif
