#pragma once
// The simulated test cluster (paper §IV): N nodes, each carrying BOTH a
// Data Vortex VIC and an FDR InfiniBand HCA, exactly like the evaluated
// 32-node system. A Cluster builds a fresh deterministic world per run and
// executes one coroutine per rank against either network.

#include <functional>
#include <memory>

#include "dvapi/context.hpp"
#include "ib/topology.hpp"
#include "mpi/comm.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/node.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "torus/fabric.hpp"
#include "vic/vic.hpp"

namespace dvx::runtime {

/// Which net::Interconnect run_mpi builds. kIb is the paper's baseline
/// fat-tree; kTorus is the APEnet+-style 3D torus (ROADMAP item 4).
enum class MpiFabric { kIb, kTorus };

/// Canonical backend id for check/obs context and experiment records:
/// "mpi" for the InfiniBand fat-tree (also accepted as "mpi-ib" at the
/// CLI), "mpi-torus" for the torus.
const char* to_string(MpiFabric fabric) noexcept;

struct ClusterConfig {
  int nodes = 32;
  vic::DvFabricParams dv{};
  dvapi::DvApiParams dvapi{};
  ib::IbParams ib{};
  torus::TorusParams torus{};
  MpiFabric mpi_fabric = MpiFabric::kIb;
  mpi::MpiParams mpi{};
  CostParams cost{};
  bool trace = false;  ///< record Extrae-style state/message traces
};

/// Does nothing: the engine runs every simulation on the calling thread
/// (DESIGN.md §12). It remains only for hostbench's sharded-engine probe
/// (hostbench/pass.cpp), and goes when that probe does.
void set_default_engine_threads(int threads);

struct RunResult {
  sim::Time finished;       ///< virtual time when the last rank finished
  sim::Duration roi;        ///< max(roi_end) - min(roi_begin) over ranks
  double roi_seconds() const { return sim::to_seconds(roi); }
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  const ClusterConfig& config() const noexcept { return config_; }
  int nodes() const noexcept { return config_.nodes; }
  sim::Tracer& tracer() noexcept { return tracer_; }

  using DvProgram = std::function<sim::Coro<void>(dvapi::DvContext&, NodeCtx&)>;
  using MpiProgram = std::function<sim::Coro<void>(mpi::Comm, NodeCtx&)>;

  /// Runs one Data Vortex program per rank on a fresh fabric.
  /// Throws if any rank fails; reports deadlock via std::logic_error.
  /// The fabric windows the run's engine at its conservative lookahead
  /// (DESIGN.md §15); a fabric without a positive one throws
  /// std::invalid_argument.
  RunResult run_dv(const DvProgram& program);

  /// Runs one MPI program per rank on a fresh fabric of config().mpi_fabric;
  /// same windowing and errors as run_dv.
  RunResult run_mpi(const MpiProgram& program);

 private:
  ClusterConfig config_;
  sim::Tracer tracer_;
};

}  // namespace dvx::runtime
