// EventFn: the simulator's type-erased `void()` callable.
//
// Every simulated event is a closure, and a kernel checkpoint copies each
// pending one (the pristine copy Restore replays). std::function
// heap-allocates any closure larger than two pointers, which put an
// allocation on every event. EventFn instead stores closures of up to
// kInlineSize bytes in place, sized for the network-delivery closure and
// the Process::After/Every timer closures, so scheduling, copying, moving
// and running those events never touches the allocator. Larger closures
// still work: they fall back to one heap allocation, exactly like
// std::function.
//
// Unlike std::function, EventFn is invoked non-const, so a `mutable`
// lambda may consume its captures when it runs; copies are independent
// objects, so a checkpoint's copy stays pristine.

#ifndef SIM_EVENT_FN_H_
#define SIM_EVENT_FN_H_

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sim {

class EventFn {
 public:
  // Inline buffer size: together with the operations pointer an EventFn is
  // one 64-byte cache line.
  static constexpr size_t kInlineSize = 56;

  // True when a closure of type F is stored in place rather than on the
  // heap. Call sites on the per-event path static_assert it.
  template <typename F>
  static constexpr bool kStoresInline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  EventFn() = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventFn> &&
                                        std::is_copy_constructible_v<Fn> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  EventFn(F&& fn) {  // implicit: Schedule call sites pass bare lambdas
    if constexpr (kStoresInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(const EventFn& other) : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->copy(other.storage_, storage_);
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->move(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(const EventFn& other) {
    if (this != &other) {
      EventFn copy(other);
      *this = std::move(copy);
    }
    return *this;
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      if (other.ops_ != nullptr) {
        other.ops_->move(other.storage_, storage_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  ~EventFn() { Reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty EventFn");
    ops_->invoke(storage_);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  // False for an empty EventFn or a heap-stored closure.
  bool stored_inline() const { return ops_ != nullptr && ops_->inline_stored; }

  // Destroys the held closure, leaving the EventFn empty.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  // Per-type operations. `move` move-constructs into `dst` and destroys
  // the source, so a moved-from storage holds no object.
  struct Ops {
    void (*invoke)(void* storage);
    void (*copy)(const void* src, void* dst);
    void (*move)(void* src, void* dst) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_stored;
  };

  template <typename Fn>
  static Fn* Inline(void* storage) {
    return std::launder(static_cast<Fn*>(storage));
  }
  template <typename Fn>
  static Fn*& Boxed(void* storage) {
    return *std::launder(static_cast<Fn**>(storage));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* storage) { (*Inline<Fn>(storage))(); },
      [](const void* src, void* dst) {
        ::new (dst) Fn(*Inline<Fn>(const_cast<void*>(src)));
      },
      [](void* src, void* dst) noexcept {
        Fn* from = Inline<Fn>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* storage) noexcept { Inline<Fn>(storage)->~Fn(); },
      true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* storage) { (*Boxed<Fn>(storage))(); },
      [](const void* src, void* dst) {
        ::new (dst) Fn*(new Fn(*Boxed<Fn>(const_cast<void*>(src))));
      },
      [](void* src, void* dst) noexcept { ::new (dst) Fn*(Boxed<Fn>(src)); },
      [](void* storage) noexcept { delete Boxed<Fn>(storage); },
      false,
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(EventFn) == 64, "an EventFn should fill one cache line");

}  // namespace sim

#endif  // SIM_EVENT_FN_H_
