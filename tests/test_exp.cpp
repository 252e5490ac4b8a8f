// Tests for the experiment layer: workload registry completeness, parameter
// resolution, per-point entry points, the plan/execute/report split with its
// parallel point scheduler, the node-sweep figures (fig6-fig8) under every
// backend selection, the one-slot memo through which points share a value,
// and the dvx_bench driver end-to-end (CLI parsing, table output, and
// machine-readable JSON emission).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/fft1d.hpp"
#include "exp/driver.hpp"
#include "exp/memo.hpp"
#include "exp/pool.hpp"
#include "exp/scheduler.hpp"
#include "exp/workload.hpp"
#include "exp/workloads/fft1d.hpp"
#include "json_lite.hpp"

namespace {

// Inside the unnamed namespace: <complex> declares a global ::exp.
namespace exp = dvx::exp;
using dvx::testing::jsonlite::is_valid_json;

int cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"dvx_bench"};
  argv.insert(argv.end(), args.begin(), args.end());
  return exp::run_cli(static_cast<int>(argv.size()), argv.data());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Registry, AllPaperFiguresAndAblationsRegistered) {
  const auto all = exp::Registry::instance().all();
  ASSERT_EQ(all.size(), 11u);
  for (const char* fig : {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                          "ablation_aggregation", "ablation_fabric", "traffic",
                          "serving"}) {
    EXPECT_NE(exp::Registry::instance().find(fig), nullptr) << fig;
  }
  for (const char* name : {"pingpong", "barrier", "gups_trace", "gups", "fft1d", "bfs",
                           "apps", "ablation_aggregation", "ablation_fabric",
                           "traffic", "serving"}) {
    EXPECT_NE(exp::Registry::instance().find(name), nullptr) << name;
  }
  EXPECT_EQ(exp::Registry::instance().find("fig42"), nullptr);
}

TEST(Registry, WorkloadsDeclareParamsAndMetrics) {
  for (const auto* w : exp::Registry::instance().all()) {
    EXPECT_FALSE(w->name().empty());
    EXPECT_FALSE(w->figure().empty());
    EXPECT_FALSE(w->title().empty());
    EXPECT_FALSE(w->metric_specs().empty()) << w->name();
    EXPECT_FALSE(w->default_nodes(false).empty()) << w->name();
    for (const auto& p : w->param_specs()) {
      EXPECT_FALSE(p.key.empty()) << w->name();
      EXPECT_FALSE(p.description.empty()) << w->name() << "." << p.key;
    }
  }
}

TEST(Registry, FastDefaultsShrinkTheGupsProblem) {
  const auto* gups = exp::Registry::instance().find("gups");
  ASSERT_NE(gups, nullptr);
  const auto full = gups->default_params(false);
  const auto fast = gups->default_params(true);
  EXPECT_LT(fast.at("updates_per_node"), full.at("updates_per_node"));
  EXPECT_EQ(fast.at("buffer_limit"), 1024);
}

TEST(Workload, BarrierExecuteMeasuresBothNetworks) {
  const auto* barrier = exp::Registry::instance().find("barrier");
  ASSERT_NE(barrier, nullptr);
  exp::RunPoint point;
  point.nodes = 2;
  point.params = barrier->default_params(true);
  std::ostringstream log;
  point.backend = exp::Backend::kDv;
  const auto dv = barrier->execute(point, log);
  point.backend = exp::Backend::kMpiIb;
  const auto mpi = barrier->execute(point, log);
  EXPECT_GT(dv.at("latency_us"), 0.0);
  EXPECT_GT(mpi.at("latency_us"), 0.0);
  // The same point is deterministic across calls.
  point.backend = exp::Backend::kDv;
  EXPECT_EQ(barrier->execute(point, log).at("latency_us"), dv.at("latency_us"));
}

TEST(Workload, TraceWorkloadIsMpiOnly) {
  const auto* trace = exp::Registry::instance().find("gups_trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->has_backend(exp::Backend::kMpiIb));
  EXPECT_FALSE(trace->has_backend(exp::Backend::kDv));
  EXPECT_FALSE(trace->has_backend(exp::Backend::kMpiTorus));
  // Asked for the other backends only, it plans nothing.
  exp::RunOptions opt;
  opt.fast = true;
  opt.backends = {exp::Backend::kDv, exp::Backend::kMpiTorus};
  EXPECT_TRUE(trace->plan(opt).empty());
}

TEST(Workload, BackendIdsRoundTripAndAliasParses) {
  EXPECT_STREQ(exp::to_string(exp::Backend::kDv), "dv");
  EXPECT_STREQ(exp::to_string(exp::Backend::kMpiIb), "mpi");  // legacy wire id
  EXPECT_STREQ(exp::to_string(exp::Backend::kMpiTorus), "mpi-torus");
  EXPECT_EQ(exp::parse_backend("dv"), exp::Backend::kDv);
  EXPECT_EQ(exp::parse_backend("mpi"), exp::Backend::kMpiIb);
  EXPECT_EQ(exp::parse_backend("mpi-ib"), exp::Backend::kMpiIb);  // CLI alias
  EXPECT_EQ(exp::parse_backend("mpi-torus"), exp::Backend::kMpiTorus);
  EXPECT_THROW(exp::parse_backend("ethernet"), std::invalid_argument);
  EXPECT_THROW(exp::parse_backend(""), std::invalid_argument);
  for (const exp::Backend b : exp::all_backends()) {
    EXPECT_EQ(exp::parse_backend(exp::to_string(b)), b);
    EXPECT_STRNE(exp::display_name(b), "");
  }
}

TEST(Workload, SelectedBackendsFiltersAndKeepsCanonicalOrder) {
  const auto* gups = exp::Registry::instance().find("gups");
  ASSERT_NE(gups, nullptr);
  exp::RunOptions opt;
  // Empty filter: the legacy dv+mpi default, torus only on request.
  auto def = gups->selected_backends(opt);
  ASSERT_EQ(def.size(), 2u);
  EXPECT_EQ(def[0], exp::Backend::kDv);
  EXPECT_EQ(def[1], exp::Backend::kMpiIb);
  // Explicit filter: canonical order regardless of CLI order, deduplicated.
  opt.backends = {exp::Backend::kMpiTorus, exp::Backend::kDv, exp::Backend::kDv};
  auto three = gups->selected_backends(opt);
  ASSERT_EQ(three.size(), 2u);
  EXPECT_EQ(three[0], exp::Backend::kDv);
  EXPECT_EQ(three[1], exp::Backend::kMpiTorus);
  // Workloads without a backend drop it silently.
  const auto* trace = exp::Registry::instance().find("gups_trace");
  ASSERT_NE(trace, nullptr);
  opt.backends = {exp::Backend::kDv, exp::Backend::kMpiTorus};
  EXPECT_TRUE(trace->selected_backends(opt).empty());
}

TEST(Workload, EveryWorkloadDeclaresItsBackendsExplicitly) {
  for (const auto* w : exp::Registry::instance().all()) {
    bool any = false;
    for (const exp::Backend b : exp::all_backends()) any |= w->has_backend(b);
    EXPECT_TRUE(any) << w->name();
    EXPECT_FALSE(w->default_backends().empty()) << w->name();
  }
}

TEST(Driver, RejectsUnknownArgumentsAndFigures) {
  EXPECT_EQ(cli({"--bogus"}), 2);
  EXPECT_EQ(cli({"--figure", "fig42"}), 2);
  EXPECT_EQ(cli({"--nodes", "banana", "--figure", "fig4"}), 2);
  EXPECT_EQ(cli({}), 2);  // no selection
  // Options of the retired multi-threaded engine are unknown arguments: the
  // run stops with the usage error instead of ignoring them.
  const std::pair<const char*, const char*> removed[] = {
      {"--engine-threads", "2"}, {"--analyze-out", "a.json"}};
  for (const auto& [flag, value] : removed) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(cli({"--figure", "fig4", "--fast", flag, value}), 2) << flag;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(std::string("unknown argument '") + flag + "'"),
              std::string::npos)
        << err;
  }
}

TEST(Driver, RejectsNumbersWithTrailingGarbage) {
  // std::stoi used to accept "8x" as 8; strict parsing must refuse it.
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--nodes", "8x"}), 2);
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--seed", "7q"}), 2);
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--jobs", "2x"}), 2);
}

TEST(Driver, RejectsNegativeSeedInsteadOfWrapping) {
  // std::stoull used to wrap "-1" to 2^64-1.
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--seed", "-1"}), 2);
}

TEST(Driver, RejectsEmptyCsvFieldsInsteadOfDroppingThem) {
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--nodes", "4,,8"}), 2);
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--nodes", ",4"}), 2);
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--nodes", "4,"}), 2);
  EXPECT_EQ(cli({"--figure", "fig4,,fig6"}), 2);
}

TEST(Driver, RejectsBadJobsValues) {
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--jobs", "0"}), 2);
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--jobs", "-3"}), 2);
}

TEST(Driver, RejectsUnknownBackends) {
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--backends", "ethernet"}), 2);
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--backends", "dv,,mpi"}), 2);
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--backends", ""}), 2);
}

TEST(Driver, ThreeWayTrafficEmitsDistinctBackendIds) {
  const std::string combined =
      ::testing::TempDir() + "/dvx_bench_three_way.json";
  std::remove(combined.c_str());
  EXPECT_EQ(cli({"--figure", "traffic", "--fast", "--backends", "dv,mpi-ib,mpi-torus",
                 "--no-figure-json", "--json", combined.c_str()}),
            0);
  const std::string doc = slurp(combined);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(is_valid_json(doc));
  EXPECT_NE(doc.find("\"backend\": \"dv\""), std::string::npos);
  EXPECT_NE(doc.find("\"backend\": \"mpi\""), std::string::npos);
  EXPECT_NE(doc.find("\"backend\": \"mpi-torus\""), std::string::npos);
  std::remove(combined.c_str());
}

TEST(Driver, BackendFilterSkipsUnsupportedSeries) {
  // fig3 has no torus series: asking for torus alone runs an empty plan.
  const std::string combined =
      ::testing::TempDir() + "/dvx_bench_torus_only.json";
  std::remove(combined.c_str());
  EXPECT_EQ(cli({"--figure", "fig3", "--fast", "--backends", "mpi-torus",
                 "--no-figure-json", "--json", combined.c_str()}),
            0);
  const std::string doc = slurp(combined);
  EXPECT_TRUE(is_valid_json(doc));
  EXPECT_EQ(doc.find("\"backend\": \"mpi-torus\""), std::string::npos);
  std::remove(combined.c_str());
}

TEST(Driver, HelpWinsButDoesNotSwallowGarbage) {
  EXPECT_EQ(cli({"--help"}), 0);
  EXPECT_EQ(cli({"--help", "--figure", "fig4"}), 0);  // help wins, nothing runs
  // --help used to return early from parsing, silently accepting any
  // arguments after it; they must still be validated.
  EXPECT_EQ(cli({"--help", "--bogus"}), 2);
  EXPECT_EQ(cli({"--help", "--nodes", "8x"}), 2);
}

TEST(Driver, JsonWithoutSelectionPrintsUsage) {
  const std::string path = ::testing::TempDir() + "/dvx_bench_no_selection.json";
  std::remove(path.c_str());
  EXPECT_EQ(cli({"--json", path.c_str()}), 2);
  // Usage error: the combined document must not have been written.
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

TEST(Driver, ServingRefusesANodeListItWouldTruncate) {
  // These figures run at one node count; a list used to lose all but its
  // first entry while the run exited 0.
  for (const char* figure : {"serving", "fig5", "traffic", "ablation_aggregation"}) {
    const auto* workload = exp::Registry::instance().find(figure);
    ASSERT_NE(workload, nullptr) << figure;
    exp::RunOptions opt;
    opt.fast = true;
    opt.nodes = {8, 16};
    try {
      workload->plan(opt);
      ADD_FAILURE() << figure << ": a two-entry node list planned";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("one node count"), std::string::npos)
          << e.what();
    }
    opt.nodes = {8};
    EXPECT_FALSE(workload->plan(opt).empty()) << figure;
    EXPECT_EQ(cli({"--figure", figure, "--fast", "--nodes", "8,16", "--no-figure-json"}), 1)
        << figure;
  }
  // These run at one fixed node count: they refuse any other count, and a
  // list, instead of ignoring it.
  const std::pair<const char*, int> fixed[] = {{"fig3", 2}, {"ablation_fabric", 32}};
  for (const auto& [figure, nodes] : fixed) {
    const auto* workload = exp::Registry::instance().find(figure);
    ASSERT_NE(workload, nullptr) << figure;
    exp::RunOptions opt;
    opt.fast = true;
    for (const std::vector<int>& refused : {std::vector<int>{8, 16}, std::vector<int>{4},
                                            std::vector<int>{nodes, nodes}}) {
      opt.nodes = refused;
      try {
        workload->plan(opt);
        ADD_FAILURE() << figure << ": a --nodes it ignores planned";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("runs at " + std::to_string(nodes) + " nodes"),
                  std::string::npos)
            << e.what();
      }
    }
    opt.nodes = {nodes};
    EXPECT_FALSE(workload->plan(opt).empty()) << figure;
    EXPECT_EQ(cli({"--figure", figure, "--fast", "--nodes", "8,16", "--no-figure-json"}), 1)
        << figure;
    EXPECT_EQ(cli({"--figure", figure, "--fast", "--nodes", "4", "--no-figure-json"}), 1)
        << figure;
  }
}

TEST(Driver, ListSucceeds) { EXPECT_EQ(cli({"--list"}), 0); }

TEST(Driver, FigureRunEmitsValidJsonMatchingTheTables) {
  const std::string dir = ::testing::TempDir();
  const std::string combined = dir + "/dvx_bench_test_out.json";
  std::remove(combined.c_str());

  // fig4 at tiny node counts: quick, exercises both backends and a sweep.
  EXPECT_EQ(cli({"--figure", "fig4", "--fast", "--nodes", "2,4", "--no-figure-json",
                 "--json", combined.c_str()}),
            0);
  const std::string doc = slurp(combined);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(is_valid_json(doc));
  EXPECT_NE(doc.find("\"schema\": \"dvx-bench/v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"figure\": \"fig4\""), std::string::npos);
  EXPECT_NE(doc.find("\"workload\": \"barrier\""), std::string::npos);
  EXPECT_NE(doc.find("\"backend\": \"dv\""), std::string::npos);
  EXPECT_NE(doc.find("\"backend\": \"mpi\""), std::string::npos);
  EXPECT_NE(doc.find("latency_us"), std::string::npos);
  std::remove(combined.c_str());
}

TEST(Driver, WritesPerFigureBenchFile) {
  const auto* w = exp::Registry::instance().find("fig4");
  ASSERT_NE(w, nullptr);
  dvx::runtime::ResultSink sink;
  std::ostringstream tables;
  exp::RunOptions opt;
  opt.fast = true;
  opt.nodes = {2};
  opt.out = &tables;
  EXPECT_EQ(exp::run_workloads({w}, opt, 1, sink), 0);
  ASSERT_FALSE(sink.records().empty());
  // Table text and JSON metrics come from the same measurement: the DV
  // latency formatted into the table appears verbatim in the table dump.
  const double dv_us = sink.records().front().metrics.at("latency_us");
  EXPECT_NE(tables.str().find(dvx::runtime::fmt(dv_us)), std::string::npos);

  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(sink.write_figure_file("fig4", dir));
  const std::string doc = slurp(dir + "/BENCH_fig4.json");
  EXPECT_TRUE(is_valid_json(doc));
  EXPECT_NE(doc.find("\"figure\": \"fig4\""), std::string::npos);
}

// -- parallel point execution ------------------------------------------------

TEST(Scheduler, RunsEveryTaskExactlyOnce) {
  std::vector<int> hits(257, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { ++hits[i]; });  // disjoint slots, no race
  }
  exp::PointScheduler(4).run(tasks);
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(exp::PointScheduler(0).jobs(), 1);  // clamped
  EXPECT_GE(exp::PointScheduler::default_jobs(), 1);
}

/// Runs `figures` through the parallel driver and returns the combined
/// JSON document plus the concatenated table output.
std::pair<std::string, std::string> run_parallel(
    const std::vector<std::string>& figures, int jobs, std::uint64_t seed = 0) {
  std::vector<const exp::Workload*> selected;
  for (const auto& f : figures) {
    const auto* w = exp::Registry::instance().find(f);
    EXPECT_NE(w, nullptr) << f;
    selected.push_back(w);
  }
  std::ostringstream tables;
  exp::RunOptions opt;
  opt.fast = true;
  opt.nodes = {2, 4};
  opt.seed = seed;
  opt.out = &tables;
  dvx::runtime::ResultSink sink;
  sink.fast = opt.fast;
  sink.seed = opt.seed;
  EXPECT_EQ(exp::run_workloads(selected, opt, jobs, sink), 0);
  return {sink.to_json().dump(2), tables.str()};
}

TEST(Parallel, JobsLevelDoesNotChangeJsonOrTables) {
  // fig4 (three variants per node count), fig6 (dv/mpi pairs + derived
  // ratios), fig8 (consumes the root --seed): byte-identical documents and
  // tables at --jobs 1 vs --jobs 4, including derived sub-seeds.
  const auto serial = run_parallel({"fig4", "fig6", "fig8"}, 1, 1234);
  const auto parallel = run_parallel({"fig4", "fig6", "fig8"}, 4, 1234);
  EXPECT_FALSE(serial.first.empty());
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_TRUE(is_valid_json(parallel.first));
  // The root seed is echoed at document level.
  EXPECT_NE(parallel.first.find("\"seed\": 1234"), std::string::npos);
}

/// Two points; the 2-node one throws during execution.
class FailingWorkload final : public exp::Workload {
 public:
  std::string name() const override { return "failing"; }
  std::string figure() const override { return "failing_fig"; }
  std::string title() const override { return "synthetic failing workload"; }
  std::string paper_anchor() const override { return "none"; }
  std::vector<exp::ParamSpec> param_specs() const override { return {}; }
  std::vector<exp::MetricSpec> metric_specs() const override {
    return {{"value", "", "synthetic metric"}};
  }
  bool has_backend(exp::Backend b) const override { return b == exp::Backend::kDv; }
  exp::MetricMap execute(const exp::RunPoint& point, std::ostream&) const override {
    if (point.nodes == 2) throw std::runtime_error("injected point failure");
    return {{"value", static_cast<double>(point.nodes)}};
  }
  std::vector<exp::RunPoint> plan(const exp::RunOptions& opt) const override {
    exp::PlanBuilder builder(*this, opt);
    builder.add(exp::Backend::kDv, 2, {});
    builder.add(exp::Backend::kDv, 4, {});
    return builder.take();
  }
  void report(const exp::RunOptions&, const std::vector<exp::PointResult>& results,
              dvx::runtime::ResultSink& sink) const override {
    for (const auto& r : results) sink.add(make_record(r));
  }
};

TEST(Parallel, ThrowingPointFailsOnlyItsOwnFigure) {
  FailingWorkload failing;
  const auto* fig4 = exp::Registry::instance().find("fig4");
  ASSERT_NE(fig4, nullptr);
  std::ostringstream tables;
  exp::RunOptions opt;
  opt.fast = true;
  opt.nodes = {2};
  opt.out = &tables;
  dvx::runtime::ResultSink sink;
  int reported = 0, reported_ok = 0;
  const int failures = exp::run_workloads(
      {&failing, fig4}, opt, 4, sink, [&](const exp::Workload&, bool ok) {
        ++reported;
        reported_ok += ok ? 1 : 0;
      });
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(reported, 2);
  EXPECT_EQ(reported_ok, 1);
  // The sibling figure still produced its full canonical record set; the
  // failed figure produced none.
  bool any_failing = false, any_fig4 = false;
  for (const auto& r : sink.records()) {
    any_failing |= r.figure == "failing_fig";
    any_fig4 |= r.figure == "fig4";
  }
  EXPECT_FALSE(any_failing);
  EXPECT_TRUE(any_fig4);
}

TEST(Parallel, SubSeedsAreDerivedPerPointAndStable) {
  exp::RunOptions opt;
  opt.fast = true;
  opt.nodes = {2, 4};
  opt.seed = 99;
  for (const char* figure : {"fig6", "fig7", "fig8"}) {
    const auto* w = exp::Registry::instance().find(figure);
    ASSERT_NE(w, nullptr) << figure;
    const auto plan_a = w->plan(opt);
    const auto plan_b = w->plan(opt);
    ASSERT_EQ(plan_a.size(), 4u) << figure;  // dv/mpi pairs at two node counts
    for (std::size_t i = 0; i < plan_a.size(); ++i) {
      EXPECT_EQ(plan_a[i].seed, plan_b[i].seed) << figure << " " << i;  // stable
      EXPECT_NE(plan_a[i].seed, 0u) << figure << " " << i;
    }
    EXPECT_NE(plan_a[0].seed, plan_a[1].seed) << figure;  // distinct streams per point
  }
  // fig6 and fig7 declare no seed parameter, so --seed leaves their params at
  // the defaults.
  for (const char* figure : {"fig6", "fig7"}) {
    const auto* w = exp::Registry::instance().find(figure);
    for (const auto& point : w->plan(opt)) {
      EXPECT_EQ(point.params, w->default_params(true)) << figure << " " << point.index;
    }
  }
  const auto* fig8 = exp::Registry::instance().find("fig8");
  const auto plan_a = fig8->plan(opt);
  // The dv/mpi pair at one node count searches the same graph...
  EXPECT_EQ(plan_a[0].params.at("seed"), plan_a[1].params.at("seed"));
  // ...and different node counts get different graphs, none the default 2.
  EXPECT_NE(plan_a[0].params.at("seed"), plan_a[2].params.at("seed"));
  EXPECT_NE(plan_a[0].params.at("seed"), 2.0);
  // Without a root seed, sub-seeds stay unset and defaults apply.
  opt.seed = 0;
  const auto plan_default = fig8->plan(opt);
  EXPECT_EQ(plan_default[0].seed, 0u);
  EXPECT_EQ(plan_default[0].params.at("seed"), 2.0);
}

// -- the node-sweep figures ----------------------------------------------------

/// What fig6, fig7 or fig8 prints and checks: each table's title with whether
/// it carries the DV/IB column, and the anchors in the order they are emitted.
struct SweepFigure {
  const char* figure;
  std::vector<std::pair<std::string, bool>> tables;
  std::vector<std::string> anchors;
};

std::vector<SweepFigure> sweep_figures() {
  return {
      {"fig6",
       {{"Fig 6a — updates per second per PE (MUPS)", false},
        {"Fig 6b — aggregated updates per second (MUPS)", true}},
       {"dv_ib_gap_widens", "dv_above_ib_at_scale"}},
      {"fig7", {{"Fig 7 — aggregate GFLOPS vs nodes", true}}, {"dv_ib_gap_widens"}},
      {"fig8",
       {{"Fig 8 — harmonic-mean MTEPS vs nodes", true}},
       {"dv_above_ib_everywhere", "dv_ib_gap_widens"}},
  };
}

/// Every non-empty subset of the backends, each in canonical order.
std::vector<std::vector<exp::Backend>> backend_subsets() {
  const auto& all = exp::all_backends();
  std::vector<std::vector<exp::Backend>> out;
  for (unsigned mask = 1; mask < (1u << all.size()); ++mask) {
    std::vector<exp::Backend> subset;
    for (std::size_t b = 0; b < all.size(); ++b) {
      if (mask & (1u << b)) subset.push_back(all[b]);
    }
    out.push_back(subset);
  }
  return out;
}

/// The header cells of every table printed in `text`, keyed by its title.
std::map<std::string, std::vector<std::string>> table_headers(const std::string& text) {
  const std::regex cell(R"(\S+(?: \S+)*)");  // cells are two or more spaces apart
  std::map<std::string, std::vector<std::string>> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 6 || line.rfind("== ", 0) != 0) continue;
    std::string header;
    std::getline(in, header);
    auto& cells = out[line.substr(3, line.size() - 6)];
    for (auto it = std::sregex_iterator(header.begin(), header.end(), cell);
         it != std::sregex_iterator(); ++it) {
      cells.push_back(it->str());
    }
  }
  return out;
}

/// Executes `w` at `nodes` on every backend, the points a report of any
/// backend subset at those node counts can read.
std::vector<exp::PointResult> run_every_backend(const exp::Workload& w,
                                                const std::vector<int>& nodes) {
  exp::RunOptions opt;
  opt.fast = true;
  opt.nodes = nodes;
  opt.backends = exp::all_backends();
  std::vector<exp::PointResult> out;
  for (const auto& point : w.plan(opt)) {
    out.push_back(exp::execute_point(w, point));
    EXPECT_FALSE(out.back().failed()) << w.figure() << ": " << out.back().error;
  }
  return out;
}

/// Plans `w` under `opt` and reports it from `executed`: each planned point
/// takes the executed result of its backend and node count.
void report_from(const exp::Workload& w, const exp::RunOptions& opt,
                 const std::vector<exp::PointResult>& executed,
                 dvx::runtime::ResultSink& sink) {
  std::vector<exp::PointResult> results;
  for (const auto& point : w.plan(opt)) {
    const exp::PointResult* r = exp::find_result(executed, point.backend, point.nodes);
    ASSERT_NE(r, nullptr) << w.figure() << " " << exp::to_string(point.backend);
    results.push_back(*r);
    results.back().point = point;
  }
  w.report(opt, results, sink);
}

bool has(const std::vector<exp::Backend>& backends, exp::Backend b) {
  return std::find(backends.begin(), backends.end(), b) != backends.end();
}

TEST(NodeSweep, TablesRecordsAndAnchorsFollowTheSelectedBackends) {
  const std::vector<int> nodes = {4, 8};
  for (const SweepFigure& fig : sweep_figures()) {
    const auto* w = exp::Registry::instance().find(fig.figure);
    ASSERT_NE(w, nullptr) << fig.figure;
    const auto executed = run_every_backend(*w, nodes);
    for (const auto& subset : backend_subsets()) {
      std::string label = fig.figure;
      for (const exp::Backend b : subset) label += std::string(" ") + exp::to_string(b);
      exp::RunOptions opt;
      opt.fast = true;
      opt.nodes = nodes;
      opt.backends = subset;
      std::ostringstream tables;
      opt.out = &tables;

      // One point per (node count, backend): node-major, backends in order.
      const auto plan = w->plan(opt);
      ASSERT_EQ(plan.size(), nodes.size() * subset.size()) << label;
      for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].index, i) << label;
        EXPECT_EQ(plan[i].nodes, nodes[i / subset.size()]) << label;
        EXPECT_EQ(plan[i].backend, subset[i % subset.size()]) << label;
        EXPECT_TRUE(plan[i].variant.empty()) << label;
      }

      dvx::runtime::ResultSink sink;
      report_from(*w, opt, executed, sink);
      const bool dv_ib = has(subset, exp::Backend::kDv) && has(subset, exp::Backend::kMpiIb);

      // Each node count's records in plan order, then its DV/IB ratio record
      // when dv and mpi-ib both ran.
      std::vector<std::pair<std::string, int>> want, got;
      for (const int n : nodes) {
        for (const exp::Backend b : subset) want.emplace_back(exp::to_string(b), n);
        if (dv_ib) want.emplace_back("derived", n);
      }
      for (const auto& r : sink.records()) {
        got.emplace_back(r.backend, r.nodes);
        if (r.backend == "derived") {
          EXPECT_EQ(r.metrics.size(), 1u) << label;
          EXPECT_EQ(r.metrics.count("dv_ib_ratio"), 1u) << label;
        }
      }
      EXPECT_EQ(got, want) << label;

      std::vector<std::string> anchors;
      for (const auto& a : sink.anchors()) anchors.push_back(a.name);
      EXPECT_EQ(anchors, dv_ib ? fig.anchors : std::vector<std::string>{}) << label;

      // The DV/IB column only on the headline table, and only with dv and
      // mpi-ib both selected.
      const auto headers = table_headers(tables.str());
      EXPECT_EQ(headers.size(), fig.tables.size()) << label;
      for (const auto& [title, ratio_column] : fig.tables) {
        std::vector<std::string> cells{"nodes"};
        for (const exp::Backend b : subset) cells.push_back(exp::display_name(b));
        if (ratio_column && dv_ib) cells.push_back("DV/IB");
        ASSERT_EQ(headers.count(title), 1u) << label << ": " << title;
        EXPECT_EQ(headers.at(title), cells) << label << ": " << title;
      }
    }
  }
}

TEST(NodeSweep, OneNodeCountGivesNoAnchor) {
  for (const SweepFigure& fig : sweep_figures()) {
    const auto* w = exp::Registry::instance().find(fig.figure);
    ASSERT_NE(w, nullptr) << fig.figure;
    exp::RunOptions opt;
    opt.fast = true;
    opt.nodes = {4};
    std::ostringstream tables;
    opt.out = &tables;
    dvx::runtime::ResultSink sink;
    report_from(*w, opt, run_every_backend(*w, opt.nodes), sink);
    ASSERT_EQ(sink.records().size(), 3u) << fig.figure;  // dv, mpi, derived
    EXPECT_EQ(sink.records().back().backend, "derived") << fig.figure;
    EXPECT_TRUE(sink.anchors().empty()) << fig.figure;
  }
}

/// A memoised value: its key and which build of the memo made it.
struct Built {
  int key = 0;
  int build = 0;
};

/// A memo over Built whose builds are counted, take a millisecond so
/// concurrent callers overlap them, and throw for key 3.
class CountingMemo {
 public:
  std::shared_ptr<const Built> get(int key) { return memo_.get(key); }
  int builds() const { return builds_.load(); }

 private:
  std::atomic<int> builds_{0};
  exp::Memo<int, Built> memo_{[this](const int& key) {
    const int build = ++builds_;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (key == 3) throw std::invalid_argument("key 3 does not build");
    return Built{key, build};
  }};
};

TEST(Memo, OneKeyReturnsOneObject) {
  CountingMemo memo;
  const auto a = memo.get(1);
  EXPECT_EQ(memo.get(1), a);
  EXPECT_EQ(a->key, 1);
  EXPECT_EQ(memo.builds(), 1);
}

TEST(Memo, AnotherKeyReturnsAnotherObject) {
  // A key of several fields, as fig8's graphs have: any field differing
  // makes another key.
  struct Key {
    int scale = 0;
    int ranks = 0;
    bool operator==(const Key&) const = default;
  };
  int builds = 0;
  exp::Memo<Key, Key> memo([&](const Key& key) {
    ++builds;
    return key;
  });
  const auto a = memo.get({9, 2});
  const auto b = memo.get({10, 2});
  const auto c = memo.get({9, 4});
  EXPECT_NE(b, a);
  EXPECT_EQ(b->scale, 10);
  EXPECT_NE(c, b);
  EXPECT_EQ(c->ranks, 4);
  EXPECT_EQ(builds, 3);
}

TEST(Memo, ConcurrentCallersOfTwoKeysGetTheirOwn) {
  // Two keys fight over the one slot: a caller whose build another key's
  // miss overtook must still return its own value.
  CountingMemo memo;
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::vector<int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int key = t % 2 == 0 ? 1 : 2;
      start.arrive_and_wait();
      for (int i = 0; i < 4; ++i) got[t].push_back(memo.get(key)->key);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (const int key : got[t]) EXPECT_EQ(key, t % 2 == 0 ? 1 : 2) << "thread " << t;
  }
}

TEST(Memo, ConcurrentCallersOfOneKeyShareOneBuild) {
  // Rounds alternate between two keys; within a round every caller asks for
  // one key at once, so all but the first wait for the build in flight and
  // share its object.
  CountingMemo memo;
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::barrier round(kThreads);
  std::vector<std::vector<std::shared_ptr<const Built>>> got(
      kRounds, std::vector<std::shared_ptr<const Built>>(kThreads));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        round.arrive_and_wait();
        got[r][t] = memo.get(r % 2 == 0 ? 1 : 2);
        round.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_EQ(got[r][0]->key, r % 2 == 0 ? 1 : 2) << "round " << r;
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[r][t], got[r][0]) << "round " << r;
    if (r > 0) {
      EXPECT_NE(got[r][0], got[r - 1][0]) << "round " << r;
    }
  }
  EXPECT_EQ(memo.builds(), kRounds);
}

TEST(Memo, ThrowingBuildThrowsToItsCallersAndALaterKeyStillBuilds) {
  CountingMemo memo;
  // Key 3's build throws; every caller of that key gets the error.
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<int> threw(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      try {
        memo.get(3);
      } catch (const std::invalid_argument&) {
        threw[t] = 1;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(std::count(threw.begin(), threw.end(), 1), kThreads);
  EXPECT_EQ(memo.get(2)->key, 2);
}

TEST(Memo, ANewKeyReleasesThePreviousValue) {
  CountingMemo memo;
  auto a = memo.get(1);
  const std::weak_ptr<const Built> weak = a;
  const auto b = memo.get(2);
  EXPECT_FALSE(weak.expired());  // the test still holds it
  a.reset();
  EXPECT_TRUE(weak.expired());
}

/// How many Tracked objects were made, are alive, and were ever alive at
/// once.
struct TrackedCounts {
  std::atomic<int> made{0};
  std::atomic<int> alive{0};
  std::atomic<int> peak{0};
};

/// A pooled object that keeps TrackedCounts up to date.
class Tracked {
 public:
  explicit Tracked(TrackedCounts& counts) : counts_(counts), id_(++counts.made) {
    const int now = ++counts_.alive;
    int peak = counts_.peak.load();
    while (now > peak && !counts_.peak.compare_exchange_weak(peak, now)) {
    }
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { --counts_.alive; }

  int id() const { return id_; }
  int holder = -1;  ///< written by whoever holds the lease

 private:
  TrackedCounts& counts_;
  const int id_;
};

/// Tracked can be neither copied nor moved, so the pool's make hands each
/// one back inside an owner that can.
using TrackedPool = exp::Pool<std::unique_ptr<Tracked>>;

TrackedPool tracked_pool(TrackedCounts& counts) {
  return TrackedPool([&counts] { return std::make_unique<Tracked>(counts); });
}

TEST(Pool, EachOutstandingLeaseHoldsItsOwnObject) {
  TrackedCounts counts;
  auto pool = tracked_pool(counts);
  auto a = pool.take();
  auto b = pool.take();
  EXPECT_NE((*a)->id(), (*b)->id());
  EXPECT_EQ(counts.made.load(), 2);
}

TEST(Pool, AReturnedObjectIsLentAgain) {
  TrackedCounts counts;
  auto pool = tracked_pool(counts);
  const Tracked* first = nullptr;
  {
    const auto lease = pool.take();
    first = lease->get();
  }
  const auto again = pool.take();
  EXPECT_EQ(again->get(), first);
  EXPECT_EQ(counts.made.load(), 1);
}

TEST(Pool, AtMostOneIdleObjectIsKept) {
  TrackedCounts counts;
  auto pool = tracked_pool(counts);
  {
    auto a = pool.take();
    auto b = pool.take();
    auto c = pool.take();
    EXPECT_EQ(counts.alive.load(), 3);
  }
  EXPECT_EQ(counts.alive.load(), 1) << "the pool kept more than one idle object";
  auto d = pool.take();
  auto e = pool.take();
  EXPECT_EQ(counts.made.load(), 4);
  EXPECT_LE((*d)->id(), 3) << "the idle object was not lent";
  EXPECT_EQ((*e)->id(), 4);
}

TEST(Pool, FourThreadsTakeAndReturnConcurrently) {
  // Every holder writes its mark and reads it back, so two leases sharing
  // an object would show; with at most one lease per thread, no more than
  // four objects are ever alive, however the returns interleave.
  TrackedCounts counts;
  auto pool = tracked_pool(counts);
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<int> shared(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < 200; ++i) {
        const auto lease = pool.take();
        (*lease)->holder = t;
        std::this_thread::yield();
        shared[t] += (*lease)->holder != t;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(shared[t], 0) << "thread " << t;
  EXPECT_LE(counts.peak.load(), kThreads);
  EXPECT_EQ(counts.alive.load(), 1);
}

TEST(Pool, ALeaseEndedByAnExceptionReturnsItsObject) {
  TrackedCounts counts;
  auto pool = tracked_pool(counts);
  const Tracked* lent = nullptr;
  try {
    const auto lease = pool.take();
    lent = lease->get();
    throw std::runtime_error("the point failed");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(pool.take()->get(), lent);
  EXPECT_EQ(counts.made.load(), 1);
}

TEST(Fft1dWorkload, ASweepBuildsItsInputOnceAndPlanBuildsNothing) {
  for (const int jobs : {1, 4}) {
    std::atomic<int> builds{0};
    std::atomic<int> buffer_sets{0};
    const auto fig7 = exp::make_fft1d_workload(
        [&](int log_size) {
          ++builds;
          return dvx::apps::make_fft_input(log_size);
        },
        [&] {
          ++buffer_sets;
          return exp::FftBuffers{};
        });
    std::ostringstream tables;
    exp::RunOptions opt;
    opt.fast = true;
    opt.backends = exp::all_backends();
    opt.out = &tables;
    const auto points = fig7->plan(opt);
    ASSERT_EQ(points.size(), 15u);
    EXPECT_EQ(builds.load(), 0) << "plan() built the input";
    EXPECT_EQ(buffer_sets.load(), 0) << "plan() took a buffer set";
    dvx::runtime::ResultSink sink;
    EXPECT_EQ(exp::run_workloads({fig7.get()}, opt, jobs, sink), 0);
    EXPECT_EQ(builds.load(), 1) << "jobs " << jobs;
    // One set serves the whole serial sweep. At --jobs 4 a set returned
    // while another is idle is dropped, so how many the sweep makes depends
    // on how the points' ends interleave; four hold at most four at once
    // (Pool.FourThreadsTakeAndReturnConcurrently), and the first take
    // after any point ends reuses a set, so 15 points make fewer than 15.
    if (jobs == 1) {
      EXPECT_EQ(buffer_sets.load(), 1);
    } else {
      EXPECT_GE(buffer_sets.load(), 1);
      EXPECT_LT(buffer_sets.load(), static_cast<int>(points.size()));
    }
  }
}

}  // namespace
