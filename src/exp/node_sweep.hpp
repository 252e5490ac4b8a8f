#pragma once
// The node-sweep shape of fig6, fig7 and fig8 (DESIGN.md §6.1). One
// algorithm runs on every selected backend at each node count of a sweep,
// and the figure is judged by whether the Data Vortex's lead over MPI/IB in
// one headline metric widens with the node count. A figure declares only
// what differs: its runner, its tables, its headline metric, its anchors
// and its closing note. The shape plans node counts × backends, builds each
// point's cluster, prints the tables and appends every record, one
// `derived` DV/IB ratio record per node count and the anchors.

#include <string>
#include <vector>

#include "exp/workload.hpp"

namespace dvx::runtime {
class Cluster;
}

namespace dvx::exp {

/// One printed table: a row per node count and a column per backend, each
/// cell a point's `metric` passed through `display`.
struct SweepTable {
  std::string title;
  std::string metric;
  double (*display)(double value) = nullptr;
};

/// A claim about the DV/IB ratios of the headline metric, one per node
/// count. Each claim has one anchor name.
enum class RatioClaim {
  kGapWidens,        ///< "dv_ib_gap_widens": the last ratio above the first
  kAboveAtScale,     ///< "dv_above_ib_at_scale": the last ratio above 1
  kAboveEverywhere,  ///< "dv_above_ib_everywhere": every ratio above 1
};

/// A claim the figure checks, with the detail its anchor carries.
struct RatioAnchor {
  RatioClaim claim{};
  std::string detail;
};

class NodeSweep : public Workload {
 public:
  /// Every backend: the runner takes any cluster, and cluster_config picks
  /// the MPI fabric.
  bool has_backend(Backend b) const final;

  /// Node counts × selected backends, node-major, each point with the
  /// default params. A figure that declares a `seed` param gets a sub-seed
  /// of the root --seed per node count instead, shared by its backends.
  std::vector<RunPoint> plan(const RunOptions& opt) const final;

  /// Runs the point on a cluster built by cluster_config.
  MetricMap execute(const RunPoint& point, std::ostream& log) const final;

  /// Prints the tables and the closing note. Appends each node count's
  /// records in plan order, then, when dv and mpi-ib both ran, its DV/IB
  /// ratio record; with two or more node counts, also the anchors.
  void report(const RunOptions& opt, const std::vector<PointResult>& results,
              runtime::ResultSink& sink) const final;

 protected:
  /// Runs one point on `cluster`, built for the point's backend and nodes.
  virtual MetricMap run(runtime::Cluster& cluster, const RunPoint& point) const = 0;
  /// The printed tables, in order.
  virtual std::vector<SweepTable> tables() const = 0;
  /// The metric whose DV/IB ratio the derived records and anchors use. The
  /// table that shows it also gets a DV/IB column.
  virtual std::string headline_metric() const = 0;
  /// The claims checked, in the order their anchors are appended.
  virtual std::vector<RatioAnchor> anchors() const = 0;
  /// What the paper shows, printed after "paper anchors: " below the tables.
  virtual std::string note() const = 0;
};

}  // namespace dvx::exp
