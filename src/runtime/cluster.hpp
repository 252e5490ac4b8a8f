#pragma once
// The simulated test cluster (paper §IV): N nodes, each carrying BOTH a
// Data Vortex VIC and an FDR InfiniBand HCA, exactly like the evaluated
// 32-node system. A Cluster builds a fresh deterministic world per run and
// executes one coroutine per rank against either network.

#include <functional>
#include <memory>
#include <vector>

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
  /// Worker threads for the engine's sharded execution mode (0 = process
  /// default, see default_engine_threads()). The cluster partitions its
  /// fabric across min(threads, nodes) shards (DESIGN.md §15). Pure
  /// execution parallelism: results are byte-identical at any value.
  int engine_threads = 0;
};

/// Resolved execution plan for one cluster run: how many shards the fabric
/// is partitioned into, how many worker threads drive them, and the
/// conservative window bound. Every cluster run is windowed. A pure function
/// of (ClusterConfig, fabric lookahead) — see Cluster::resolve_sharding.
struct ShardPlan {
  int shards = 1;
  int threads = 1;
  sim::Duration lookahead = 0;
};

/// Process-wide default for ClusterConfig::engine_threads == 0: the
/// `--engine-threads` CLI value when set, else the DVX_ENGINE_THREADS
/// environment variable, else 1.
int default_engine_threads();
/// Overrides the process default (<= 0 restores env/1 resolution).
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
  RunResult run_dv(const DvProgram& program);

  /// Runs one MPI-over-InfiniBand program per rank on a fresh fabric.
  RunResult run_mpi(const MpiProgram& program);

  /// The execution plan a cluster with this config uses for a fabric with
  /// the given conservative lookahead bound: threads from the config (else
  /// the process default), shards = min(threads, nodes). Cluster runs are
  /// windowed even at shards == 1, so every shard count shares one
  /// resolution semantics and sweeps are byte-identical across
  /// --engine-threads values (DESIGN.md §15). Throws std::invalid_argument
  /// when the bound is not positive: such a fabric cannot be windowed.
  static ShardPlan resolve_sharding(const ClusterConfig& config,
                                    sim::Duration lookahead);

  /// Deterministic node -> shard map: contiguous balanced blocks, node r on
  /// shard floor(r * shards / nodes). A pure function of its arguments —
  /// every shard owns at least one node when shards <= nodes.
  static std::vector<int> shard_map(int nodes, int shards);

 private:
  ClusterConfig config_;
  sim::Tracer tracer_;
};

}  // namespace dvx::runtime
