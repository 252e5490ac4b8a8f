#pragma once
// The one way a workload's points share a value (DESIGN.md §6.4): a memo the
// workload owns, whose value is a pure function of its key. fig7's input
// and fig8's graphs go through it.

#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <utility>

namespace dvx::exp {

/// Hands out values built by `build`, one slot deep. The slot holds the most
/// recent key and its value, so a sweep that visits its keys in runs builds
/// each run's value once and never holds two. A miss replaces the slot,
/// dropping the memo's reference to the previous value, and builds outside
/// the lock; callers of the same key wait for that build. A build that
/// throws rethrows to every caller waiting on it.
template <typename Key, typename Value>
class Memo {
 public:
  using Build = std::function<Value(const Key&)>;

  explicit Memo(Build build) : build_(std::move(build)) {}

  std::shared_ptr<const Value> get(const Key& key) {
    std::unique_lock<std::mutex> lock(mu_);
    if (value_.valid() && key_ == key) {
      const auto hit = value_;
      lock.unlock();
      return hit.get();
    }
    std::promise<std::shared_ptr<const Value>> building;
    key_ = key;
    value_ = building.get_future().share();
    const auto mine = value_;
    lock.unlock();
    try {
      building.set_value(std::make_shared<const Value>(build_(key)));
    } catch (...) {
      building.set_exception(std::current_exception());
    }
    // The future taken under the lock, never the slot again: another key's
    // miss may have replaced the slot during the build.
    return mine.get();
  }

 private:
  const Build build_;
  std::mutex mu_;
  Key key_{};
  /// The slot's value; invalid until the first get().
  std::shared_future<std::shared_ptr<const Value>> value_;
};

}  // namespace dvx::exp
