// Move-only callable with small-buffer optimization, sized for the engine's
// event callbacks.
//
// Every scheduling site in the simulator captures at most `this` plus a few
// ids or one 16-byte net::Frame handle (32 bytes for a network hop), so the
// common case stores the functor inline in the event node and scheduling an
// event performs no heap allocation at all (std::function's ~64-byte
// captures still allocate on libstdc++). Larger captures fall back to a
// single heap cell.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace vodsm::sim {

class Callback {
 public:
  // Fits the largest capture the sim/net layers schedule (this + two ids +
  // one frame handle, with room to spare); raising it only trades event-node
  // size for heap hits.
  static constexpr size_t kInlineBytes = 48;

  Callback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &inlineVTable<Fn>;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      vt_ = &heapVTable<Fn>;
    }
  }

  Callback(Callback&& o) noexcept { moveFrom(o); }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      moveFrom(o);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() { vt_->invoke(buf_); }

  void reset() {
    if (vt_) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr VTable inlineVTable = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable heapVTable = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
      },
      [](void* p) { delete *static_cast<Fn**>(p); },
  };

  void moveFrom(Callback& o) noexcept {
    vt_ = o.vt_;
    if (vt_) {
      vt_->relocate(buf_, o.buf_);
      o.vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace vodsm::sim
