#pragma once
// Objects a workload's points borrow in turn (DESIGN.md §6.4): fig7's
// output and scratch buffers. Unlike a memo's value, a pooled object carries
// nothing from one point to the next: every element a point reads, that
// point wrote first, so which point held the object before cannot move a
// result.

#include <functional>
#include <memory>
#include <mutex>
#include <utility>

namespace dvx::exp {

/// Lends out objects made by `make`, keeping at most one idle between
/// leases, so a sweep that runs its points one at a time makes one object
/// and a sweep of J parallel points never holds more than J at once. A take
/// that finds no idle object makes one outside the lock; an object returned
/// while another is idle is dropped, also outside the lock.
template <typename T>
class Pool {
 public:
  using Make = std::function<T()>;

  /// A borrowed object; ending the lease, also by an exception, returns it.
  /// The pool must outlive its leases.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)), value_(std::move(other.value_)) {}
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->give_back(std::move(value_));
    }

    T& operator*() const { return *value_; }
    T* operator->() const { return value_.get(); }

   private:
    friend class Pool;
    Lease(Pool& pool, std::unique_ptr<T> value) : pool_(&pool), value_(std::move(value)) {}

    Pool* pool_;
    std::unique_ptr<T> value_;
  };

  explicit Pool(Make make) : make_(std::move(make)) {}

  Lease take() {
    std::unique_lock<std::mutex> lock(mu_);
    std::unique_ptr<T> value = std::move(idle_);
    lock.unlock();
    if (value == nullptr) value = std::make_unique<T>(make_());
    return Lease(*this, std::move(value));
  }

 private:
  void give_back(std::unique_ptr<T> value) {
    std::unique_lock<std::mutex> lock(mu_);
    if (idle_ == nullptr) idle_ = std::move(value);
    lock.unlock();
  }

  const Make make_;
  std::mutex mu_;
  /// The idle object, or null.
  std::unique_ptr<T> idle_;
};

}  // namespace dvx::exp
