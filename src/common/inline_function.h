// Small-buffer-optimized move-only callable with an arbitrary signature.
// InlineTask (src/common/inline_task.h), the engine's event callback, is the
// void() instance with four words of inline storage.
//
// The motivating user is the response-continuation path: every actor
// sub-call (CallContext::Call) and every DirectClient call carries a
// `void(const Response&)` continuation. std::function would keep captures
// inline only when they are trivially copyable and at most 16 bytes
// (libstdc++), so the dominant capture shapes — [CallContext*,
// shared_ptr<int> fan-out counter] (24 bytes) and [call, counter, this]
// (32 bytes) — would each cost a heap allocation per issued call.
// InlineFunction stores any nothrow-movable callable of up to InlineBytes
// inline regardless of trivial copyability; larger or throwing-move
// callables (including wrapped std::functions from cold paths)
// transparently fall back to the heap.
//
// Differences from std::function, all deliberate: move-only, no target
// introspection, invoking an empty function is a checked failure rather than
// std::bad_function_call.

#ifndef SRC_COMMON_INLINE_FUNCTION_H_
#define SRC_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/check.h"

namespace actop {

template <typename Signature, std::size_t InlineBytes = 6 * sizeof(void*)>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;
  static_assert(InlineBytes >= sizeof(void*) && InlineBytes % sizeof(void*) == 0,
                "inline storage must hold at least the heap fallback pointer");

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      if constexpr (std::is_trivially_copyable_v<D> && sizeof(D) < kInlineBytes) {
        // Trivial callables relocate via a fixed-width memcpy of the whole
        // buffer (see MoveFrom); define the tail bytes once so that copy
        // never reads uninitialized storage.
        std::memset(storage_ + sizeof(D), 0, kInlineBytes - sizeof(D));
      }
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(fn));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  R operator()(Args... args) {
    ACTOP_CHECK(ops_ != nullptr);
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) { return f.ops_ == nullptr; }
  friend bool operator!=(const InlineFunction& f, std::nullptr_t) { return f.ops_ != nullptr; }

  // True when the wrapped callable lives out-of-line (introspection for
  // tests; steady-state continuations should stay inline).
  bool heap_allocated() const { return ops_ != nullptr && ops_->heap; }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-construct the callable from `from` into `to`, destroying the
    // original ("relocate"); both point at kInlineBytes of raw storage.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool heap;
    // Trivially copyable inline callables relocate via memcpy and need no
    // destructor call — the engine moves every task twice per event (into
    // its slot, back out at dispatch), so skipping the indirect relocate /
    // destroy calls for plain [ptr, int...] captures is a measurable win.
    bool trivial;
  };

  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(void*) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        D* src = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<D*>(s))->~D(); },
      false,
      std::is_trivially_copyable_v<D>,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s, Args&&... args) -> R {
        return (**reinterpret_cast<D**>(s))(std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        *reinterpret_cast<D**>(to) = *reinterpret_cast<D**>(from);
      },
      [](void* s) noexcept { delete *reinterpret_cast<D**>(s); },
      true,
      false,
  };

  void MoveFrom(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->trivial) {
        std::memcpy(storage_, other.storage_, kInlineBytes);
      } else {
        ops_->relocate(other.storage_, storage_);
      }
      other.ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  // Pointer-aligned: callables needing stricter alignment take the heap path.
  alignas(void*) unsigned char storage_[kInlineBytes];
};

}  // namespace actop

#endif  // SRC_COMMON_INLINE_FUNCTION_H_
