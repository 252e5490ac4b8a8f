#include "exp/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

namespace dvx::exp {

PointScheduler::PointScheduler(int jobs) : jobs_(std::max(jobs, 1)) {}

void PointScheduler::run(const std::vector<std::function<void()>>& tasks) const {
  if (tasks.empty()) return;
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(jobs_), tasks.size()));
  if (workers <= 1) {
    for (const auto& task : tasks) task();
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < tasks.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      tasks[i]();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int t = 0; t < workers - 1; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is the last worker
  for (auto& th : pool) th.join();
}

int PointScheduler::default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace dvx::exp
