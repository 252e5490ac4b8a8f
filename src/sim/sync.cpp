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

}  // namespace dvx::sim
