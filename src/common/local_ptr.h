// LocalPtr: a reference-counted pointer for data that stays on one thread.
//
// std::shared_ptr pays a locked read-modify-write per copy and per drop
// once a program has started a second thread, which the batch pool and
// the explorer frontier do. The copy-on-write parts of a run (the trace's
// event vector, the scheduler's result log) never leave the thread that
// runs it, so they count their holders with a plain integer instead. One
// allocation holds the count and the value.
//
// Thread confinement: every holder of one value must live on one thread at
// a time. A whole run, with all its holders, may move to another thread
// through a synchronizing hand-off (a pool join); a LocalPtr copied to
// another thread that keeps using it while this one does is a data race.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace wfd {

template <class T>
class LocalPtr {
 public:
  LocalPtr() = default;
  LocalPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  // One allocation: the count and a T built from args.
  template <class... Args>
  static LocalPtr make(Args&&... args) {
    LocalPtr p;
    p.box_ = new Box(std::forward<Args>(args)...);
    return p;
  }

  LocalPtr(const LocalPtr& o) noexcept : box_(o.box_) {
    if (box_ != nullptr) ++box_->refs;
  }
  LocalPtr(LocalPtr&& o) noexcept : box_(std::exchange(o.box_, nullptr)) {}
  LocalPtr& operator=(const LocalPtr& o) noexcept {
    if (o.box_ != nullptr) ++o.box_->refs;
    drop();
    box_ = o.box_;
    return *this;
  }
  LocalPtr& operator=(LocalPtr&& o) noexcept {
    if (this != &o) {
      drop();
      box_ = std::exchange(o.box_, nullptr);
    }
    return *this;
  }
  ~LocalPtr() { drop(); }

  void reset() noexcept {
    drop();
    box_ = nullptr;
  }

  [[nodiscard]] T* get() const { return box_ != nullptr ? &box_->value : nullptr; }
  T& operator*() const { return box_->value; }
  T* operator->() const { return &box_->value; }
  explicit operator bool() const { return box_ != nullptr; }
  // Holders of the value (0 for null), exact under thread confinement.
  [[nodiscard]] std::uint32_t use_count() const {
    return box_ != nullptr ? box_->refs : 0;
  }

  // Identity, as shared_ptr's: two handles are equal iff they hold the
  // same value.
  friend bool operator==(const LocalPtr& a, const LocalPtr& b) {
    return a.box_ == b.box_;
  }

 private:
  // The value is stored non-const even for LocalPtr<const U>, so an owner
  // that knows it holds the last reference may take parts of it apart
  // (see Scheduler::ResultNode's destructor).
  struct Box {
    template <class... Args>
    explicit Box(Args&&... args) : value(std::forward<Args>(args)...) {}
    std::uint32_t refs = 1;
    std::remove_const_t<T> value;
  };

  void drop() noexcept {
    if (box_ != nullptr && --box_->refs == 0) delete box_;
  }

  Box* box_ = nullptr;
};

}  // namespace wfd
