// dvx_perf — wall-clock microbenchmarks of the simulator's hot paths.
//
// Three rates bound how large a simulated experiment can be:
//   * engine_event_storm      — DES dispatch throughput (events/s): a seeded
//     storm of plain callbacks interleaved with coroutine delay chains, so
//     both payload kinds (side-slab callbacks, handle slab) are exercised.
//   * switch_drain_congested  — cycle-accurate switch throughput (cycles/s)
//     draining a deep uniform-random backlog on a 256-port fabric: deep port
//     queues, saturated occupancy, then the sparse drain tail.
//   * fabric_burst            — analytic FabricModel bursts/s.
//   * fabric_torus            — 3D-torus timing model messages/s.
//   * arrival_storm           — serving-layer arrival generation + token
//     bucket admission (requests/s): the host-side cost of planning an
//     open-loop multi-tenant serving point (dvx::serve, DESIGN.md §14).
//   * bfs_dv_point            — one whole fast fig8 Data Vortex BFS point
//     (graph edges/s): Kronecker build, distribution (apps::build_bfs_graph)
//     and the simulated search with its surprise-FIFO traffic, end to end.
//   * fft_mpi_point           — one whole full-size fig7 MPI/IB FFT-1D point
//     (transformed points/s): 2^20 points over 8 nodes, the six-step
//     numerics and the three pack/alltoall/unpack transposes, end to end.
//   * fft_dv_point            — the same fig7 point over Data Vortex: the
//     numerics plus three scatter transposes carried as DV-memory runs.
//   * vorticity_dv_point      — one whole full-size fig9 vorticity point over
//     Data Vortex (grid cells x steps/s): a 256 x 256 grid, 8 RK2 steps on
//     32 nodes, the spectral numerics and ten scatter transposes per step.
//   * gups_mpi_point          — one whole full-size fig6 MPI/IB GUPS point
//     (updates/s): 2^16 updates per node over 32 nodes, the hypercube
//     bucket routing of every update through apps::run_gups_mpi.
//   * serving_dv_point        — one whole full-size serving point at load 1x
//     over Data Vortex (requests/s): 16 nodes, arrival generation and the
//     open-loop session through serve::run_serve_dv.
//   * local_fft               — node-local FFT numerics (points/s): 1024 rows
//     of 1024 points through kernels::fft_rows, the fig7/fig9 row stage.
//   * kronecker_edges         — Graph500 Kronecker edge generation
//     (edges/s): every edge of the scale-16, edge-factor-16 generator
//     through kernels::KroneckerGenerator::edge, fig8's graph-build step.
//
// These are wall-clock measurements of the *simulator* (the one place host
// time is allowed); the measured work is fully deterministic (fixed seeds,
// fixed counts), so rates are comparable run-to-run on one machine. Results
// are emitted as a dvx-perf/v1 JSON document; CI compares them against the
// committed BENCH_PERF.json baseline with a generous threshold (see
// tools/check_perf_regression.py) so every perf PR has a measured
// trajectory.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/fft1d.hpp"
#include "apps/gups.hpp"
#include "apps/vorticity.hpp"
#include "dvnet/cycle_switch.hpp"
#include "dvnet/fabric_model.hpp"
#include "kernels/fft.hpp"
#include "kernels/kronecker.hpp"
#include "runtime/cluster.hpp"
#include "runtime/report.hpp"
#include "serve/admission.hpp"
#include "serve/arrival.hpp"
#include "serve/session.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "torus/fabric.hpp"

namespace {

namespace sim = dvx::sim;
namespace dvnet = dvx::dvnet;
namespace runtime = dvx::runtime;

using Clock = std::chrono::steady_clock;  // det-lint: allow(system_clock) -- host repetition timing only, never feeds a report field

struct BenchResult {
  std::string name;
  std::string unit;
  double work = 0;     // units processed per repetition
  double seconds = 0;  // best (fastest) repetition
  double rate = 0;     // work / seconds of the best repetition
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// DES dispatch throughput under a deep pending-event population: 2^20
/// one-shot callbacks pre-loaded at seeded random times across a 1 ms
/// window (the event heap stays ~10^6 entries deep through most of the
/// run — the regime a large fabric simulation with many outstanding
/// packets puts the scheduler in), plus a handful of coroutine delay
/// chains so the handle path is exercised too.
BenchResult engine_event_storm() {
  constexpr std::uint64_t kBurst = 1 << 20;
  constexpr int kCoros = 16;
  constexpr int kHops = 256;

  const auto t0 = Clock::now();
  sim::Engine engine;
  engine.set_audit_interval(0);
  sim::Xoshiro256 rng(42);
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    engine.schedule(sim::ns(static_cast<double>(rng.below(1u << 20))), [] {});
  }
  for (int c = 0; c < kCoros; ++c) {
    engine.spawn([](sim::Engine& eng, sim::Xoshiro256 coro_rng) -> sim::Coro<void> {
      for (int h = 0; h < kHops; ++h) {
        co_await eng.delay(sim::ns(static_cast<double>(1 + coro_rng.below(256))));
      }
    }(engine, sim::Xoshiro256(static_cast<std::uint64_t>(c) + 1)));
  }
  engine.run();
  const double s = seconds_since(t0);
  const double work = static_cast<double>(engine.events_processed());
  return {"engine_event_storm", "events/s", work, s, work / s};
}

/// Cycle-accurate switch throughput draining a congested 256-port fabric:
/// 4096 uniform-random packets queued per port, injected under backpressure
/// until the backlog clears, then the in-flight tail.
BenchResult switch_drain_congested() {
  constexpr int kRounds = 4096;
  const dvnet::Geometry g = dvnet::Geometry::for_ports(256, 4);

  const auto t0 = Clock::now();
  dvnet::CycleSwitch sw(g);
  sim::Xoshiro256 rng(7);
  const auto ports = static_cast<std::uint64_t>(g.ports());
  for (int r = 0; r < kRounds; ++r) {
    for (int p = 0; p < g.ports(); ++p) {
      sw.inject(p, static_cast<int>(rng.below(ports)));
    }
  }
  if (!sw.drain(100'000'000)) {
    std::cerr << "dvx_perf: switch_drain_congested failed to drain\n";
    std::exit(1);
  }
  const double s = seconds_since(t0);
  const double work = static_cast<double>(sw.cycle());
  return {"switch_drain_congested", "cycles/s", work, s, work / s};
}

/// Analytic fabric-model throughput: 2^20 eight-word bursts between seeded
/// random port pairs at a steady virtual injection cadence.
BenchResult fabric_burst() {
  constexpr std::uint64_t kBursts = 1 << 20;

  const auto t0 = Clock::now();
  dvnet::FabricModel fm(dvnet::FabricParams{.geometry = {8, 4}});
  sim::Xoshiro256 rng(2);
  sim::Time now = 0;
  for (std::uint64_t i = 0; i < kBursts; ++i) {
    const auto dst = static_cast<int>(rng.below(32));
    const auto src = static_cast<int>(rng.below(32));
    fm.send_burst(src, dst, 8, now);
    now += sim::ns(10);
  }
  const double s = seconds_since(t0);
  const double work = static_cast<double>(kBursts);
  return {"fabric_burst", "bursts/s", work, s, work / s};
}

/// 3D-torus timing-model throughput: 2^19 4-KiB messages between seeded
/// random node pairs on a 64-node (4x4x4) torus at a steady virtual
/// injection cadence — the dimension-order path walk plus per-link
/// serialization bookkeeping is the whole cost.
BenchResult fabric_torus() {
  constexpr std::uint64_t kMsgs = 1 << 19;

  const auto t0 = Clock::now();
  dvx::torus::Fabric fabric(64);
  sim::Xoshiro256 rng(3);
  sim::Time now = 0;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    const auto dst = static_cast<int>(rng.below(64));
    const auto src = static_cast<int>(rng.below(64));
    fabric.send_message(src, dst, 4096, now);
    now += sim::ns(100);
  }
  const double s = seconds_since(t0);
  const double work = static_cast<double>(kMsgs);
  return {"fabric_torus", "msgs/s", work, s, work / s};
}

/// Serving-layer arrival planning throughput: generate the canonical
/// multi-tenant trace for a large open-loop point (64 nodes, default
/// four-tenant mix, ~2^20 requests) and push every request through a
/// per-(tenant, node) token bucket — the host-side hot loop every serving
/// sweep point pays before the first simulated picosecond.
BenchResult arrival_storm() {
  namespace serve = dvx::serve;
  serve::ArrivalConfig cfg;
  cfg.seed = 11;
  cfg.nodes = 64;
  cfg.horizon_us = 400.0;
  cfg.unit_rate_rps = 5.0e8;  // ~2^20 requests over the default mix

  const auto t0 = Clock::now();
  const serve::ArrivalTrace trace = serve::generate_arrivals(cfg);
  // One bucket per (tenant, node), refilled in virtual time at half the
  // tenant's offered rate so both the accept and the shed paths stay hot.
  const double horizon_ps = cfg.horizon_us * 1e6;
  std::vector<serve::TokenBucket> buckets;
  buckets.reserve(trace.tenants.size() * static_cast<std::size_t>(cfg.nodes));
  for (std::size_t ti = 0; ti < trace.tenants.size(); ++ti) {
    const double rate = 0.5 * static_cast<double>(trace.offered_per_tenant[ti]) /
                        (horizon_ps * cfg.nodes);
    for (int n = 0; n < cfg.nodes; ++n) buckets.emplace_back(rate, 16.0);
  }
  std::uint64_t accepted = 0;
  for (const serve::Request& r : trace.requests) {
    const std::size_t b = r.tenant * static_cast<std::size_t>(cfg.nodes) + r.home;
    accepted += buckets[b].try_take(r.arrival) ? 1 : 0;
  }
  if (accepted == 0 || accepted >= trace.offered()) {
    std::cerr << "dvx_perf: arrival_storm admission degenerate (" << accepted
              << "/" << trace.offered() << ")\n";
    std::exit(1);
  }
  const double s = seconds_since(t0);
  const double work = static_cast<double>(trace.offered());
  return {"arrival_storm", "requests/s", work, s, work / s};
}

/// End-to-end fig8 canary: the fast-mode Data Vortex BFS point at 16 nodes
/// (scale 13, edge factor 16, two searches, seed 2), cluster construction
/// and the graph build (apps::build_bfs_graph) included, then the search
/// through apps::run_bfs_dv. Rated per generated graph edge, so the rate is
/// a whole figure point's host cost, not one layer's; the build stays in
/// although a fig8 sweep shares one build between its backends, so the rate
/// stays comparable with its earlier rows.
BenchResult bfs_dv_point() {
  namespace apps = dvx::apps;
  const apps::BfsParams params{.scale = 13, .edge_factor = 16, .searches = 2, .seed = 2};

  const auto t0 = Clock::now();
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 16});
  const apps::BfsGraph graph = apps::build_bfs_graph(params, cluster.nodes());
  const apps::BfsResult result = apps::run_bfs_dv(cluster, params, graph);
  const double s = seconds_since(t0);
  if (!(result.harmonic_mean_teps > 0)) {
    std::cerr << "dvx_perf: bfs_dv_point traversed nothing\n";
    std::exit(1);
  }
  const double work = static_cast<double>(result.graph_edges);
  return {"bfs_dv_point", "edges/s", work, s, work / s};
}

/// End-to-end fig7 canary: the full-size FFT-1D point (2^20 points) over
/// MPI on an 8-node InfiniBand cluster through apps::run_fft_mpi, cluster
/// construction included: the host FFT numerics plus the three simulated
/// pack/alltoall/unpack transposes. The input is built inside the timed
/// region, so the row keeps timing its generation as it did when each rank
/// generated its own slice, and so are the output and scratch, which the
/// point zero-fills and faults in as a sweep's first point does. A fast fig7
/// point lasts only tens of ms, too short to time stably.
BenchResult fft_mpi_point() {
  namespace apps = dvx::apps;
  const apps::FftParams params{.log_size = 20};
  const auto n = std::size_t{1} << params.log_size;

  const auto t0 = Clock::now();
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 8});
  std::vector<dvx::kernels::Complex> output(n), scratch(n);
  const apps::FftResult result = apps::run_fft_mpi(
      cluster, params, apps::make_fft_input(params.log_size), output, scratch);
  const double s = seconds_since(t0);
  if (!(result.gflops() > 0)) {
    std::cerr << "dvx_perf: fft_mpi_point transformed nothing\n";
    std::exit(1);
  }
  const double work = static_cast<double>(std::int64_t{1} << params.log_size);
  return {"fft_mpi_point", "points/s", work, s, work / s};
}

/// End-to-end fig7 canary over Data Vortex: the full-size FFT-1D point on 8
/// nodes through apps::run_fft_dv, cluster construction included: the same
/// numerics, input build and buffers as fft_mpi_point, with three scatter
/// transposes whose words cross the fabric as DV-memory runs.
BenchResult fft_dv_point() {
  namespace apps = dvx::apps;
  const apps::FftParams params{.log_size = 20};
  const auto n = std::size_t{1} << params.log_size;

  const auto t0 = Clock::now();
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 8});
  std::vector<dvx::kernels::Complex> output(n), scratch(n);
  const apps::FftResult result = apps::run_fft_dv(
      cluster, params, apps::make_fft_input(params.log_size), output, scratch);
  const double s = seconds_since(t0);
  if (!(result.gflops() > 0)) {
    std::cerr << "dvx_perf: fft_dv_point transformed nothing\n";
    std::exit(1);
  }
  const double work = static_cast<double>(std::int64_t{1} << params.log_size);
  return {"fft_dv_point", "points/s", work, s, work / s};
}

/// End-to-end fig9 canary: the full-size vorticity point (a 256 x 256 grid,
/// 8 RK2 steps) over Data Vortex on 32 nodes through apps::run_vorticity_dv,
/// cluster construction included: the pseudo-spectral numerics plus the
/// five scatter transposes of each right-hand side, two per step. Rated in
/// grid cells x steps per second.
BenchResult vorticity_dv_point() {
  namespace apps = dvx::apps;
  const apps::VorticityParams params{.n = 256, .steps = 8};

  const auto t0 = Clock::now();
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 32});
  const apps::VorticityResult result = apps::run_vorticity_dv(cluster, params);
  const double s = seconds_since(t0);
  if (!(result.seconds > 0) || !std::isfinite(result.omega_checksum)) {
    std::cerr << "dvx_perf: vorticity_dv_point stepped nothing\n";
    std::exit(1);
  }
  const double work = static_cast<double>(params.n) * params.n * params.steps;
  return {"vorticity_dv_point", "cells*steps/s", work, s, work / s};
}

/// End-to-end fig6 canary: the full-size GUPS point over MPI on a 32-node
/// InfiniBand cluster (2^16 table words and 2^16 updates per node) through
/// apps::run_gups_mpi, cluster construction included: the log2(P) stages of
/// bucket routing that every update takes, fig6's largest host cost.
BenchResult gups_mpi_point() {
  namespace apps = dvx::apps;
  const apps::GupsParams params{.local_table_words = 1 << 16, .updates_per_node = 1 << 16};

  const auto t0 = Clock::now();
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 32});
  const apps::GupsResult result = apps::run_gups_mpi(cluster, params);
  const double s = seconds_since(t0);
  if (!(result.gups() > 0)) {
    std::cerr << "dvx_perf: gups_mpi_point updated nothing\n";
    std::exit(1);
  }
  const double work = result.total_updates;
  return {"gups_mpi_point", "updates/s", work, s, work / s};
}

/// End-to-end serving canary: the full-size serving point at load 1x over
/// Data Vortex on 16 nodes (a 1200 us open-loop window at 1.6 M requests/s,
/// the default four-tenant mix, arrival seed 41, admission off), arrival
/// generation and cluster construction included, through
/// serve::run_serve_dv. Rated in offered requests per second.
BenchResult serving_dv_point() {
  namespace serve = dvx::serve;
  serve::ArrivalConfig cfg;
  cfg.seed = 41;
  cfg.nodes = 16;
  cfg.horizon_us = 1200.0;
  double total_weight = 0.0;
  for (const serve::TenantSpec& t : serve::default_tenants()) {
    total_weight += t.rate_weight;
  }
  cfg.unit_rate_rps = 1.6e6 / total_weight;

  const auto t0 = Clock::now();
  const serve::ArrivalTrace trace = serve::generate_arrivals(cfg);
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = cfg.nodes});
  const serve::ServeReport report = serve::run_serve_dv(cluster, trace, {});
  const double s = seconds_since(t0);
  if (trace.offered() == 0 || report.served() != report.accepted()) {
    std::cerr << "dvx_perf: serving_dv_point served " << report.served() << " of "
              << report.accepted() << " accepted requests\n";
    std::exit(1);
  }
  const double work = static_cast<double>(trace.offered());
  return {"serving_dv_point", "requests/s", work, s, work / s};
}

/// Node-local FFT throughput: 1024 seeded rows of 1024 points transformed
/// in place by one kernels::fft_rows call, as one fig7 row stage does.
BenchResult local_fft() {
  constexpr std::int64_t kLen = 1024;
  constexpr std::int64_t kRows = 1024;
  std::vector<dvx::kernels::Complex> data(static_cast<std::size_t>(kLen * kRows));
  sim::Xoshiro256 rng(5);
  for (auto& x : data) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};

  const auto t0 = Clock::now();
  dvx::kernels::fft_rows(data, kLen);
  const double s = seconds_since(t0);
  if (!std::isfinite(std::abs(data.front()))) {
    std::cerr << "dvx_perf: local_fft produced a non-finite value\n";
    std::exit(1);
  }
  const double work = static_cast<double>(data.size());
  return {"local_fft", "points/s", work, s, work / s};
}

/// Kronecker edge throughput: all 2^20 edges of the scale-16, edge-factor-16
/// generator, one KroneckerGenerator::edge call each. The endpoints fold
/// into an order-sensitive checksum pinned to the generator's output, so
/// the loop cannot be optimised away and a changed edge stream fails loudly.
BenchResult kronecker_edges() {
  constexpr std::uint64_t kChecksum = 727895861368997495;
  const dvx::kernels::KroneckerGenerator gen({.scale = 16, .edge_factor = 16});

  const auto t0 = Clock::now();
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < gen.edges(); ++i) {
    const dvx::kernels::Edge e = gen.edge(i);
    sum = sum * 31 + (e.u << 32 | e.v);
  }
  const double s = seconds_since(t0);
  if (sum != kChecksum) {
    std::cerr << "dvx_perf: kronecker_edges checksum " << sum << " != " << kChecksum
              << "\n";
    std::exit(1);
  }
  const double work = static_cast<double>(gen.edges());
  return {"kronecker_edges", "edges/s", work, s, work / s};
}

using BenchFn = BenchResult (*)();
struct BenchEntry {
  const char* name;
  BenchFn fn;
};
constexpr BenchEntry kBenches[] = {
    {"engine_event_storm", engine_event_storm},
    {"switch_drain_congested", switch_drain_congested},
    {"fabric_burst", fabric_burst},
    {"fabric_torus", fabric_torus},
    {"arrival_storm", arrival_storm},
    {"bfs_dv_point", bfs_dv_point},
    {"fft_mpi_point", fft_mpi_point},
    {"fft_dv_point", fft_dv_point},
    {"vorticity_dv_point", vorticity_dv_point},
    {"gups_mpi_point", gups_mpi_point},
    {"serving_dv_point", serving_dv_point},
    {"local_fft", local_fft},
    {"kronecker_edges", kronecker_edges},
};

int usage(int code) {
  std::cout << "dvx_perf — simulator hot-path microbenchmarks (dvx-perf/v1)\n\n"
               "usage: dvx_perf [--repeat N] [--filter SUBSTR] [--json PATH]"
               " [--list]\n\n"
               "  --repeat N      repetitions per benchmark; the fastest is"
               " reported (default 3)\n"
               "  --filter SUBSTR run only benchmarks whose name contains"
               " SUBSTR\n"
               "  --json PATH     write the dvx-perf/v1 document to PATH\n"
               "  --list          list benchmark names and exit\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  int repeat = 3;
  std::string filter;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "dvx_perf: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--list") {
      for (const auto& b : kBenches) std::cout << b.name << "\n";
      return 0;
    }
    if (arg == "--repeat") {
      repeat = std::atoi(value());
      if (repeat < 1) {
        std::cerr << "dvx_perf: --repeat must be >= 1\n";
        return 2;
      }
    } else if (arg == "--filter") {
      filter = value();
    } else if (arg == "--json") {
      json_path = value();
    } else {
      std::cerr << "dvx_perf: unknown argument '" << arg << "'\n";
      return usage(2);
    }
  }

  std::vector<BenchResult> results;
  for (const auto& bench : kBenches) {
    if (!filter.empty() && std::string(bench.name).find(filter) == std::string::npos) {
      continue;
    }
    BenchResult best;
    for (int r = 0; r < repeat; ++r) {
      BenchResult one = bench.fn();
      if (r == 0 || one.seconds < best.seconds) best = one;
    }
    std::cout << best.name << ": " << static_cast<std::uint64_t>(best.rate) << " "
              << best.unit << "  (" << best.work << " in " << best.seconds << " s, best of "
              << repeat << ")\n";
    results.push_back(best);
  }
  if (results.empty()) {
    std::cerr << "dvx_perf: no benchmark matches filter '" << filter << "'\n";
    return 2;
  }

  if (!json_path.empty()) {
    runtime::Json doc = runtime::Json::object();
    doc["schema"] = "dvx-perf/v1";
    doc["repeat"] = repeat;
    runtime::Json benches = runtime::Json::array();
    for (const auto& r : results) {
      runtime::Json b = runtime::Json::object();
      b["name"] = r.name;
      b["unit"] = r.unit;
      b["work"] = r.work;
      b["seconds"] = r.seconds;
      b["rate"] = r.rate;
      benches.push_back(std::move(b));
    }
    doc["benchmarks"] = std::move(benches);
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "dvx_perf: cannot write " << json_path << "\n";
      return 1;
    }
    out << doc.dump(2) << "\n";
  }
  return 0;
}
