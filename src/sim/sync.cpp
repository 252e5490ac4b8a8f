#include "sim/sync.hpp"

#include "check/check.hpp"

namespace dvx::sim {

void Condition::notify_all(Time at) {
  if (at < engine_.now()) at = engine_.now();
  std::vector<std::shared_ptr<Waiter>> woken;
  woken.swap(waiters_);
  for (auto& rec : woken) {
    DVX_CHECK(rec != nullptr);
    if (!rec->fired) {
      rec->fired = true;
      engine_.schedule_handle(at, rec->handle);
    }
  }
}

void Condition::notify_one(Time at) {
  if (at < engine_.now()) at = engine_.now();
  while (!waiters_.empty()) {
    auto rec = waiters_.front();
    waiters_.erase(waiters_.begin());
    DVX_CHECK(rec != nullptr);
    if (!rec->fired) {
      rec->fired = true;
      engine_.schedule_handle(at, rec->handle);
      return;
    }
  }
}

Coro<void> Semaphore::acquire() {
  while (count_ <= 0) co_await cond_.wait();
  // The wake-up contract: a waiter only resumes once a unit is available.
  DVX_CHECK(count_ > 0) << "semaphore resumed with no unit available";
  --count_;
}

void Semaphore::release(Time at, std::int64_t n) {
  DVX_CHECK(n > 0) << "release of " << n << " units";
  count_ += n;
  cond_.notify_all(at);
}

Coro<void> PhaseBarrier::arrive_and_wait() {
  const std::uint64_t my_phase = phase_;
  // Epoch sanity: no party may arrive twice before the phase flips.
  DVX_CHECK(arrived_ < parties_)
      << "barrier over-arrival: " << arrived_ + 1 << " of " << parties_
      << " parties in phase " << phase_;
  if (++arrived_ == parties_) {
    arrived_ = 0;
    ++phase_;
    cond_.notify_all(engine_.now());
    co_return;
  }
  while (phase_ == my_phase) co_await cond_.wait();
  DVX_CHECK(phase_ > my_phase) << "barrier phase went backwards";
}

}  // namespace dvx::sim
