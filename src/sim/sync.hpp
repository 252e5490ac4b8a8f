#pragma once
// Coroutine synchronization primitives on top of the DES engine.
//
// All wake-ups carry an explicit virtual time: a notifier that models an event
// happening at time t resumes waiters at max(now, t), never earlier.

#include <coroutine>
#include <cstddef>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace dvx::sim {

/// Broadcast condition: processes wait() or wait_until(t); notify_all(at)
/// wakes all current waiters. A waiter record is tombstoned on first wake so
/// a notify and a timeout can never double-resume the same coroutine.
class Condition {
 public:
  explicit Condition(Engine& engine) : engine_(engine) {}

  /// Awaitable parking the current coroutine until the next notify.
  auto wait() {
    struct Awaiter {
      Condition& cond;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        cond.waiters_.push_back(std::make_shared<Waiter>(Waiter{h, false}));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Awaitable parking the current coroutine until the next notify OR until
  /// virtual time `deadline`, whichever comes first.
  auto wait_until(Time deadline) {
    struct Awaiter {
      Condition& cond;
      Time deadline;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        auto rec = std::make_shared<Waiter>(Waiter{h, false});
        cond.waiters_.push_back(rec);
        Engine& eng = cond.engine_;
        const Time t = deadline < eng.now() ? eng.now() : deadline;
        eng.schedule(t, [rec, &eng] {
          if (!rec->fired) {
            rec->fired = true;
            eng.schedule_handle(eng.now(), rec->handle);
          }
        });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, deadline};
  }

  /// Wakes every current waiter at virtual time `at` (clamped to now).
  void notify_all(Time at);

  Engine& engine() noexcept { return engine_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    bool fired;
  };

  Engine& engine_;
  std::vector<std::shared_ptr<Waiter>> waiters_;
};

/// Typed message queue: values become visible at their arrival time.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(engine), cond_(engine) {}

  /// Deposits a value that becomes receivable at time `at`. Waiting
  /// receivers re-evaluate immediately (a later push can carry an earlier
  /// arrival than the one a receiver is currently sleeping towards).
  void push(Time at, T value) {
    if (at < engine_.now()) at = engine_.now();
    items_.push_back(Item{at, std::move(value)});
    cond_.notify_all(engine_.now());
  }

  /// Receives the earliest-arriving value, waiting for virtual arrival time.
  Coro<T> receive() {
    for (;;) {
      if (!items_.empty()) {
        // Earliest arrival wins; FIFO among equal times (stable scan).
        std::size_t best = 0;
        for (std::size_t i = 1; i < items_.size(); ++i) {
          if (items_[i].at < items_[best].at) best = i;
        }
        const Time at = items_[best].at;
        if (at <= engine_.now()) {
          T v = std::move(items_[best].value);
          items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(best));
          co_return v;
        }
        // Sleep to the earliest known arrival, but wake early if a new push
        // lands so the target arrival can be re-evaluated.
        co_await cond_.wait_until(at);
        continue;
      }
      co_await cond_.wait();
    }
  }

  /// Non-waiting probe: true if a value is receivable right now.
  bool ready() const noexcept {
    for (const auto& it : items_) {
      if (it.at <= engine_.now()) return true;
    }
    return false;
  }

  std::size_t size() const noexcept { return items_.size(); }

 private:
  struct Item {
    Time at;
    T value;
  };
  Engine& engine_;
  Condition cond_;
  std::deque<Item> items_;
};

}  // namespace dvx::sim
