#pragma once

#include <type_traits>
#include <utility>

namespace mute {

/// Non-owning, non-allocating callable reference — the `std::function`
/// replacement for call-scope APIs (sim::parallel_sweep's dispatch, the
/// fleet worker pool). Two words: an object pointer and a call thunk. Unlike
/// std::function there is no heap fallback for large captures, no virtual
/// dispatch machinery, and copying is trivial, so a FunctionRef can be
/// stored in scheduler state shared with worker threads without any
/// allocation on the dispatch path.
///
/// Lifetime: the referenced callable must outlive every invocation — bind
/// lambdas whose scope encloses the call (the parallel-for idiom). Like
/// string_view, it is a parameter/dispatch type, not a storage type.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, like
  // std::function — callers pass lambdas directly.
  FunctionRef(F&& f) noexcept
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return static_cast<R>((*static_cast<std::remove_reference_t<F>*>(
              obj))(std::forward<Args>(args)...));
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace mute
