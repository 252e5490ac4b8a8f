#include "runtime/cluster.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "obs/collector.hpp"
#include "runtime/report.hpp"

namespace dvx::runtime {

namespace {
int g_default_engine_threads = 0;  // 0 = fall back to env / 1
}  // namespace

int default_engine_threads() {
  if (g_default_engine_threads > 0) return g_default_engine_threads;
  if (const char* env = std::getenv("DVX_ENGINE_THREADS")) {
    try {
      const int n = std::stoi(env);
      if (n > 0) return n;
    } catch (const std::exception&) {
      // fall through: a malformed value means "unset"
    }
  }
  return 1;
}

void set_default_engine_threads(int threads) {
  g_default_engine_threads = threads > 0 ? threads : 0;
}

const char* to_string(MpiFabric fabric) noexcept {
  switch (fabric) {
    case MpiFabric::kIb:
      return "mpi";
    case MpiFabric::kTorus:
      return "mpi-torus";
  }
  return "mpi";  // unreachable; keeps -Wreturn-type quiet
}

Cluster::Cluster(ClusterConfig config) : config_(config), tracer_(config.trace) {
  if (config_.nodes <= 0) throw std::invalid_argument("Cluster: nodes must be positive");
  // Invariant violations in any simulated run report uniformly (structured
  // text + one JSON line on stderr) before aborting the run.
  install_check_report_handler();
}

namespace {

RunResult collect(sim::Engine& engine, std::deque<NodeCtx>& ctxs) {
  const sim::Time finished = engine.run();
  if (!engine.all_done()) {
    throw std::logic_error("Cluster: a rank never finished (deadlock?)");
  }
  sim::Time b = ctxs.front().roi_begin_time();
  sim::Time e = ctxs.front().roi_end_time();
  for (const auto& c : ctxs) {
    b = std::min(b, c.roi_begin_time());
    e = std::max(e, c.roi_end_time());
  }
  // The engine sits below dvx_obs in the library stack, so its diagnostics
  // are harvested here rather than self-attached.
  if (obs::Registry* m = obs::metrics()) {
    m->counter("sim.engine.events")->add(engine.events_processed());
    // The conservative window bound, for sanity-checking sharded runs.
    // Neither the thread count nor the per-shard max queue depth, which
    // depends on the shard layout, is exported: metrics snapshots are
    // byte-identical at any --engine-threads value.
    m->gauge("sim.engine.lookahead_ps")
        ->sample(static_cast<double>(engine.sharding().lookahead));
  }
  return RunResult{finished, e > b ? e - b : 0};
}

/// Turns the tracer on for the duration of one run when the ambient obs
/// collector asked for a trace, and hands the collector only the records
/// this run appended (a point may run the cluster several times).
class TraceCapture {
 public:
  explicit TraceCapture(sim::Tracer& tracer)
      : tracer_(tracer), was_enabled_(tracer.enabled()), mark_(tracer.mark()) {
    if (obs::trace_wanted()) tracer_.set_enabled(true);
  }
  ~TraceCapture() {
    obs::absorb_trace(tracer_, mark_);
    tracer_.set_enabled(was_enabled_);
  }
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  sim::Tracer* tracer_or_null() noexcept {
    return tracer_.enabled() ? &tracer_ : nullptr;
  }

 private:
  sim::Tracer& tracer_;
  bool was_enabled_;
  sim::TraceMark mark_;
};

/// One stderr line per unique execution plan (satellite of ISSUE 10: the
/// old configure_single_shard silently clamped every run to one shard).
/// Deliberately NOT a metric — the plan depends on --engine-threads, and
/// metrics snapshots must not.
void report_shard_plan(const ClusterConfig& config, const ShardPlan& plan) {
  std::ostringstream os;
  os << "dvx: cluster sharding: nodes=" << config.nodes
     << " shards=" << plan.shards << " threads=" << plan.threads
     << " lookahead_ps=" << plan.lookahead;
  static std::mutex mu;
  static std::set<std::string>* seen = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mu);
  if (seen->insert(os.str()).second) std::cerr << os.str() << "\n";
}

/// Applies the resolved plan to a fresh engine and reports it.
ShardPlan apply_sharding(sim::Engine& engine, const ClusterConfig& config,
                         sim::Duration lookahead) {
  const ShardPlan plan = Cluster::resolve_sharding(config, lookahead);
  report_shard_plan(config, plan);
  engine.configure_sharding({.shards = plan.shards,
                             .threads = plan.threads,
                             .lookahead = plan.lookahead,
                             .windowed = true});
  return plan;
}

}  // namespace

ShardPlan Cluster::resolve_sharding(const ClusterConfig& config,
                                    sim::Duration lookahead) {
  if (lookahead <= 0) {
    throw std::invalid_argument(
        "Cluster: the fabric has no positive lookahead, so it cannot be windowed");
  }
  ShardPlan plan;
  plan.threads =
      config.engine_threads > 0 ? config.engine_threads : default_engine_threads();
  plan.lookahead = lookahead;
  // Windowed even at one shard: every layout then shares the same
  // window-close resolution semantics, which is what makes shards=1 and
  // shards=N trajectories byte-identical (DESIGN.md §15).
  plan.shards = std::min(plan.threads, config.nodes);
  return plan;
}

std::vector<int> Cluster::shard_map(int nodes, int shards) {
  if (nodes <= 0) return {};
  if (shards < 1) shards = 1;
  std::vector<int> map(static_cast<std::size_t>(nodes));
  for (int r = 0; r < nodes; ++r) {
    map[static_cast<std::size_t>(r)] = static_cast<int>(
        static_cast<std::int64_t>(r) * shards / nodes);
  }
  return map;
}

RunResult Cluster::run_dv(const DvProgram& program) {
  const check::ScopedBackend check_backend("dv");
  TraceCapture capture(tracer_);
  tracer_.ensure_nodes(config_.nodes);
  sim::Engine engine;
  vic::DvFabric fabric(engine, config_.nodes, config_.dv);
  const ShardPlan plan = apply_sharding(engine, config_, fabric.min_remote_latency());
  fabric.configure_partition(plan.shards);
  const std::vector<int> node_shard = shard_map(config_.nodes, plan.shards);
  CostModel cost(config_.cost);
  std::deque<dvapi::DvContext> dv_ctxs;
  std::deque<NodeCtx> node_ctxs;
  for (int r = 0; r < config_.nodes; ++r) {
    dv_ctxs.emplace_back(engine, fabric, r, capture.tracer_or_null(), config_.dvapi);
    node_ctxs.emplace_back(engine, cost, tracer_, r);
  }
  for (int r = 0; r < config_.nodes; ++r) {
    // The explicit shard pins every rank's coroutine (and everything it
    // schedules locally) to its partition; the default would put all roots
    // on shard 0.
    engine.spawn(program(dv_ctxs[static_cast<std::size_t>(r)],
                         node_ctxs[static_cast<std::size_t>(r)]),
                 /*start=*/-1, node_shard[static_cast<std::size_t>(r)]);
  }
  return collect(engine, node_ctxs);
}

RunResult Cluster::run_mpi(const MpiProgram& program) {
  // The check context carries the real backend id ("mpi" vs "mpi-torus"),
  // so invariant-failure JSON distinguishes the fabrics.
  const check::ScopedBackend check_backend(to_string(config_.mpi_fabric));
  TraceCapture capture(tracer_);
  tracer_.ensure_nodes(config_.nodes);
  sim::Engine engine;
  std::unique_ptr<net::Interconnect> fabric;
  switch (config_.mpi_fabric) {
    case MpiFabric::kIb:
      fabric = std::make_unique<ib::Fabric>(config_.nodes, config_.ib);
      break;
    case MpiFabric::kTorus:
      fabric = std::make_unique<torus::Fabric>(config_.nodes, config_.torus);
      break;
  }
  // The lookahead comes from the interconnect's own conservative bound.
  const ShardPlan plan = apply_sharding(engine, config_, fabric->lookahead());
  const std::vector<int> node_shard = shard_map(config_.nodes, plan.shards);
  mpi::MpiWorld world(engine, std::move(fabric), config_.nodes, config_.mpi,
                      capture.tracer_or_null());
  world.configure_partition(node_shard);
  CostModel cost(config_.cost);
  std::deque<NodeCtx> node_ctxs;
  for (int r = 0; r < config_.nodes; ++r) {
    node_ctxs.emplace_back(engine, cost, tracer_, r);
  }
  for (int r = 0; r < config_.nodes; ++r) {
    engine.spawn(program(world.comm(r), node_ctxs[static_cast<std::size_t>(r)]),
                 /*start=*/-1, node_shard[static_cast<std::size_t>(r)]);
  }
  return collect(engine, node_ctxs);
}

}  // namespace dvx::runtime
