#include "runtime/cluster.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "check/check.hpp"
#include "obs/collector.hpp"
#include "runtime/report.hpp"

namespace dvx::runtime {

void set_default_engine_threads(int /*threads*/) {}

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

}  // namespace

RunResult Cluster::run_dv(const DvProgram& program) {
  const check::ScopedBackend check_backend("dv");
  TraceCapture capture(tracer_);
  sim::Engine engine;
  vic::DvFabric fabric(engine, config_.nodes, config_.dv);
  CostModel cost(config_.cost);
  std::deque<dvapi::DvContext> dv_ctxs;
  std::deque<NodeCtx> node_ctxs;
  for (int r = 0; r < config_.nodes; ++r) {
    dv_ctxs.emplace_back(engine, fabric, r, capture.tracer_or_null(), config_.dvapi);
    node_ctxs.emplace_back(engine, cost, tracer_, r);
  }
  for (int r = 0; r < config_.nodes; ++r) {
    engine.spawn(program(dv_ctxs[static_cast<std::size_t>(r)],
                         node_ctxs[static_cast<std::size_t>(r)]));
  }
  return collect(engine, node_ctxs);
}

RunResult Cluster::run_mpi(const MpiProgram& program) {
  // The check context carries the real backend id ("mpi" vs "mpi-torus"),
  // so invariant-failure JSON distinguishes the fabrics.
  const check::ScopedBackend check_backend(to_string(config_.mpi_fabric));
  TraceCapture capture(tracer_);
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
  mpi::MpiWorld world(engine, std::move(fabric), config_.nodes, config_.mpi,
                      capture.tracer_or_null());
  CostModel cost(config_.cost);
  std::deque<NodeCtx> node_ctxs;
  for (int r = 0; r < config_.nodes; ++r) {
    node_ctxs.emplace_back(engine, cost, tracer_, r);
  }
  for (int r = 0; r < config_.nodes; ++r) {
    engine.spawn(program(world.comm(r), node_ctxs[static_cast<std::size_t>(r)]));
  }
  return collect(engine, node_ctxs);
}

}  // namespace dvx::runtime
