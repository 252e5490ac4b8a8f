#pragma once
// Point-level parallel execution for the experiment layer (DESIGN.md §6).
//
// A `dvx_bench --all` sweep is ~118 independent (workload, backend, nodes,
// seed) simulation points, each owning its own `sim::Engine` /
// `runtime::Cluster`. The PointScheduler fans them out over a fixed-size
// thread pool: tasks are claimed from a shared atomic cursor, so long points
// (fig9 apps at 32 nodes) and short ones (fig3 small messages) pack tightly
// regardless of plan order. Determinism is the planner's job — every task
// must be pure — the scheduler only guarantees each task runs exactly once
// and that run() returns after all of them finished.

#include <functional>
#include <vector>

namespace dvx::exp {

class PointScheduler {
 public:
  /// `jobs` worker threads; values < 1 are clamped to 1. At jobs == 1 no
  /// thread is spawned: tasks run inline on the caller, in index order,
  /// exactly like the historical sequential driver.
  explicit PointScheduler(int jobs);

  int jobs() const noexcept { return jobs_; }

  /// Runs every task exactly once; blocks until all completed. The calling
  /// thread participates as one of the workers. Tasks must not throw —
  /// capture failures into your result slot (see exp::execute_point).
  void run(const std::vector<std::function<void()>>& tasks) const;

  /// The default parallelism: std::thread::hardware_concurrency() (min 1).
  static int default_jobs();

 private:
  int jobs_;
};

}  // namespace dvx::exp
