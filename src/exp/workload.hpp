#pragma once
// The experiment layer (DESIGN.md §6): every paper figure is a `Workload`
// registered once in the `Registry`, and one driver (`dvx_bench`) can list,
// configure, sweep, and run any of them, emitting both the legacy
// human-readable tables and machine-readable JSON records via
// `runtime::ResultSink`.
//
// A workload is a thin adapter over the existing `apps::run_*_dv` /
// `apps::run_*_mpi` entry points. Reproducing a figure is split into three
// phases so independent measurement points can run in parallel
// (DESIGN.md §6, "parallel execution & determinism"):
//
//   plan    — enumerate the figure's `RunPoint`s in canonical order:
//             (backend, nodes, fully resolved params, variant label, and a
//             SplitMix64 sub-seed derived from the root `--seed`).
//   execute — run ONE point; the only per-point entry. Pure: owns its own
//             `sim::Engine` / `runtime::Cluster` and writes any
//             human-readable output to the per-point log stream. The only
//             objects points share are the workloads' memos (`exp::Memo`:
//             fig7's input, fig8's graphs), each value a pure function of
//             its key, and fig7's buffer pool (`exp::Pool`), whose objects
//             one point holds at a time and which carry nothing between
//             points.
//   report  — consume the results (same order as the plan) to print the
//             legacy tables and append records/anchors to the sink.
//
// fig6, fig7 and fig8 share one shape, `exp::NodeSweep`
// (exp/node_sweep.hpp), which writes all three phases from what each
// figure declares.
//
// Because every point is seeded from the plan alone, a memo hands every
// caller the same value for the same key, and a point writes every element
// of a pooled object before reading it, the results — and therefore the
// emitted JSON — are byte-identical at any `--jobs` level.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/report.hpp"

namespace dvx::runtime {
struct ClusterConfig;
}

namespace dvx::exp {

/// Every network a figure can run over. kMpiIb is MPI over the InfiniBand
/// fat-tree (the paper's baseline), kMpiTorus is MPI over the APEnet+-style
/// 3D torus. Adding a backend here is a compile-visible event: to_string,
/// parse_backend, all_backends, and every Workload::has_backend switch must
/// be extended before the project builds again.
enum class Backend { kDv, kMpiIb, kMpiTorus };

/// Canonical id used in JSON records, metric labels, and check context:
/// "dv", "mpi", "mpi-torus". The fat-tree keeps the pre-seam id "mpi" so
/// every existing record, golden file, and downstream consumer stays valid.
const char* to_string(Backend b);

/// Parses a backend id for the `--backends` CLI filter. Accepts the
/// canonical ids plus "mpi-ib" as an explicit alias for the fat-tree.
/// Throws std::invalid_argument on anything else.
Backend parse_backend(std::string_view id);

/// All backends in canonical plan order: dv, mpi (ib), mpi-torus.
const std::vector<Backend>& all_backends();

/// Human-readable table-column name: "Data Vortex", "Infiniband", "3D Torus".
const char* display_name(Backend b);

/// The cluster a point of `backend` runs on: `nodes` nodes, with the torus
/// as its MPI fabric for kMpiTorus and the fat-tree otherwise.
runtime::ClusterConfig cluster_config(Backend backend, int nodes);

/// One named workload parameter with its defaults. Parameters are doubles
/// (counts, sizes, log-sizes); the fast-mode default shrinks the problem so
/// a full `dvx_bench --all --fast` sweep stays quick.
struct ParamSpec {
  std::string key;
  double full_value = 0.0;
  double fast_value = 0.0;
  std::string description;
};

/// One metric a workload reports per record.
struct MetricSpec {
  std::string key;
  std::string unit;
  std::string description;
};

/// Resolved parameter values, keyed by ParamSpec::key.
using ParamMap = std::map<std::string, double>;

/// Metric values produced by one measurement point.
using MetricMap = std::map<std::string, double>;

/// Driver-level options shared by every workload run.
struct RunOptions {
  bool fast = false;           ///< shrink problem sizes (also via DVX_BENCH_FAST)
  std::uint64_t seed = 0;      ///< 0 = keep each workload's default seed
  std::vector<int> nodes;      ///< empty = the workload's default node sweep
  std::ostream* out = nullptr; ///< table output; nullptr = std::cout
  /// Non-empty: collect obs metrics per point and write one
  /// METRICS_<figure>_p<index>.json (schema dvx-metrics/v1) into this dir.
  std::string metrics_dir;
  /// Non-empty: record an execution trace per point and write one
  /// TRACE_<figure>_p<index>.json (Chrome trace format) into this dir.
  std::string trace_dir;
  /// Non-empty: restrict every figure to these backends (the `--backends`
  /// filter). Empty keeps each workload's default_backends() — the paper's
  /// dv/mpi pairing — so default output is unchanged by backends the
  /// workload could run but was not asked to.
  std::vector<Backend> backends;
};

/// One planned measurement point of a figure.
struct RunPoint {
  std::size_t index = 0;          ///< position in the figure's canonical plan
  Backend backend = Backend::kDv;
  int nodes = 0;
  ParamMap params;                ///< fully resolved parameter values
  std::string variant;            ///< sub-series label ("" = single series)
  std::uint64_t seed = 0;         ///< SplitMix64 sub-seed of the root --seed
                                  ///< (0 when no root seed was given)
};

/// Outcome of executing one RunPoint.
struct PointResult {
  RunPoint point;
  MetricMap metrics;   ///< empty when the point failed
  std::string log;     ///< human-readable output captured during execution
  std::string error;   ///< non-empty: the point threw with this message
  bool failed() const { return !error.empty(); }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;    ///< e.g. "gups"
  virtual std::string figure() const = 0;  ///< e.g. "fig6"
  virtual std::string title() const = 0;   ///< banner headline
  virtual std::string paper_anchor() const = 0;  ///< banner paper summary

  virtual std::vector<ParamSpec> param_specs() const = 0;
  virtual std::vector<MetricSpec> metric_specs() const = 0;

  /// Whether the workload has an implementation on this network. Pure so
  /// every workload states its support explicitly — a new Backend enumerator
  /// cannot silently "run everywhere".
  virtual bool has_backend(Backend b) const = 0;

  /// The backends this figure plans when RunOptions::backends is empty:
  /// the paper's dv/mpi pairing intersected with has_backend(). The torus
  /// never joins a sweep unasked, which keeps default output stable.
  std::vector<Backend> default_backends() const;

  /// opt.backends (or default_backends() when empty) filtered to the
  /// backends this workload implements, in canonical order.
  std::vector<Backend> selected_backends(const RunOptions& opt) const;

  /// Whether selected_backends(opt) holds `b`.
  bool selects(const RunOptions& opt, Backend b) const;

  /// The node counts plan() sweeps when RunOptions::nodes is empty.
  virtual std::vector<int> default_nodes(bool fast) const;

  /// The node counts plan() sweeps: RunOptions::nodes, or default_nodes()
  /// when it is empty.
  std::vector<int> node_counts(const RunOptions& opt) const;

  /// The node count of a figure that runs at one cluster size: `fallback`
  /// when RunOptions::nodes is empty, else its one entry. A longer list
  /// throws std::invalid_argument, so plan() refuses it instead of running
  /// its first entry only.
  int one_node_count(const RunOptions& opt, int fallback) const;

  /// The node count of a figure that runs at one size only: `fixed`, when
  /// RunOptions::nodes is empty or names exactly that count. Anything else
  /// throws std::invalid_argument naming the count, so plan() refuses a
  /// --nodes it would ignore.
  int fixed_node_count(const RunOptions& opt, int fixed) const;

  /// Enumerates the figure's measurement points in canonical order,
  /// honouring `opt.nodes` where the figure has a node sweep.
  virtual std::vector<RunPoint> plan(const RunOptions& opt) const = 0;

  /// Executes ONE planned point and returns the metrics metric_specs()
  /// declares; the only per-point entry. Must be pure with respect to
  /// shared state: the only side channels are the returned metrics and
  /// `log` (shown by the reporting phase, in plan order). Shared state a
  /// point reads must be a pure function of what the point asks for, as a
  /// workload's memo is; an object a point borrows from a workload's pool
  /// it must write before it reads, so which point held it before cannot
  /// move a result.
  virtual MetricMap execute(const RunPoint& point, std::ostream& log) const = 0;

  /// Prints the figure's banner, tables, and paper-anchor notes from the
  /// executed results (`results[i].point.index == i`, all successful) and
  /// appends one BenchRecord per point (plus AnchorChecks) to `sink`.
  virtual void report(const RunOptions& opt, const std::vector<PointResult>& results,
                      runtime::ResultSink& sink) const = 0;

  // -- helpers shared by implementations --

  /// Defaults for this mode, i.e. {key -> full_value or fast_value}.
  ParamMap default_params(bool fast) const;
  /// Prints the standard banner for this workload to its table stream,
  /// RunOptions::out or std::cout when that is unset, and returns the stream.
  std::ostream& banner(const RunOptions& opt) const;
  /// A record for an executed point: figure/workload tags, the point's
  /// backend, nodes, params and variant, and its metrics.
  runtime::BenchRecord make_record(const PointResult& result) const;
  /// A cross-backend ("derived") record, e.g. a DV/IB ratio row.
  runtime::BenchRecord make_derived_record(int nodes, MetricMap metrics,
                                           std::string variant = {}) const;
  /// An anchor check pre-filled with the figure tag.
  runtime::AnchorCheck make_anchor(std::string name, double observed,
                                   double expected, bool pass,
                                   std::string detail = {}) const;
};

/// Accumulates a figure's RunPoints in canonical order, assigning each its
/// index and a sub-seed derived (SplitMix64) from the root `--seed` and the
/// figure tag — a pure function of the plan, independent of `--jobs`.
class PlanBuilder {
 public:
  PlanBuilder(const Workload& workload, const RunOptions& opt);

  /// Appends the next point; `params` are copied as resolved.
  void add(Backend backend, int nodes, const ParamMap& params,
           std::string variant = {});

  std::vector<RunPoint> take() { return std::move(points_); }

 private:
  std::uint64_t figure_seed_ = 0;  ///< 0 = no root seed given
  std::vector<RunPoint> points_;
};

/// The executed point matching (backend, nodes, variant), or nullptr when
/// the plan did not contain it (e.g. a backend filtered out by --backends).
/// Reports use this instead of positional indexing so a figure renders
/// whatever subset of its series was actually planned.
const PointResult* find_result(const std::vector<PointResult>& results,
                               Backend backend, int nodes,
                               std::string_view variant = {});

/// Executes one point with exceptions captured into PointResult::error and
/// log output captured into PointResult::log. Never throws.
PointResult execute_point(const Workload& workload, const RunPoint& point);

/// As above, honouring RunOptions::metrics_dir / trace_dir: the point runs
/// under a private obs::Collector (thread-safe at any --jobs level because
/// no collector is shared) and, on success, its metrics snapshot and Chrome trace
/// are written to the respective directories. A failed write marks the
/// point failed.
PointResult execute_point(const Workload& workload, const RunPoint& point,
                          const RunOptions& opt);

/// The global workload registry. Populated with the built-in workloads on
/// first access; figure tags ("fig3".."fig9", "ablation_*") and workload
/// names ("pingpong", "gups", ...) both resolve.
class Registry {
 public:
  static Registry& instance();

  void add(std::unique_ptr<Workload> workload);

  /// Lookup by workload name OR figure tag; nullptr when unknown.
  const Workload* find(std::string_view name_or_figure) const;

  /// All workloads in registration (figure) order.
  std::vector<const Workload*> all() const;

 private:
  Registry() = default;
  std::vector<std::unique_ptr<Workload>> workloads_;
};

/// The paper's node-count sweep: first, 2*first, ... up to 32.
std::vector<int> paper_node_counts(int first = 2);

/// True when the DVX_BENCH_FAST environment variable is set and non-zero.
bool fast_mode_env();

// Factories for the built-in workloads (one per figure / ablation); called
// by Registry::instance() so registration survives static-library linking.
std::unique_ptr<Workload> make_pingpong_workload();          // fig3
std::unique_ptr<Workload> make_barrier_workload();           // fig4
std::unique_ptr<Workload> make_gups_trace_workload();        // fig5
std::unique_ptr<Workload> make_gups_workload();              // fig6
std::unique_ptr<Workload> make_fft1d_workload();             // fig7
std::unique_ptr<Workload> make_bfs_workload();               // fig8
std::unique_ptr<Workload> make_apps_workload();              // fig9
std::unique_ptr<Workload> make_ablation_aggregation_workload();
std::unique_ptr<Workload> make_ablation_fabric_workload();
std::unique_ptr<Workload> make_traffic_workload();
std::unique_ptr<Workload> make_serving_workload();

}  // namespace dvx::exp
