// Component microbenchmarks (google-benchmark): raw rates of the simulator
// building blocks. These are wall-clock benchmarks of the *simulator*, not
// virtual-time results — they bound how large a simulated experiment can be.

#include <benchmark/benchmark.h>

#include <vector>

#include "dvnet/cycle_switch.hpp"
#include "dvnet/fabric_model.hpp"
#include "kernels/gups_table.hpp"
#include "kernels/kronecker.hpp"
#include "kernels/stencil.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

namespace sim = dvx::sim;
namespace dvnet = dvx::dvnet;
namespace kernels = dvx::kernels;

void BM_EngineEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      engine.schedule(sim::ns(i), [] {});
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventDispatch)->Arg(1 << 14);

void BM_CoroutineSwitch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn([](sim::Engine& eng, std::int64_t hops) -> sim::Coro<void> {
      for (std::int64_t i = 0; i < hops; ++i) co_await eng.delay(1);
    }(engine, state.range(0)));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoroutineSwitch)->Arg(1 << 14);

void BM_CycleSwitchStep(benchmark::State& state) {
  dvnet::CycleSwitch sw(dvnet::Geometry{8, 4});
  sim::Xoshiro256 rng(1);
  for (auto _ : state) {
    for (int p = 0; p < 32; ++p) sw.inject(p, static_cast<int>(rng.below(32)));
    sw.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sw.delivered_total()));
}
BENCHMARK(BM_CycleSwitchStep);

void BM_FabricModelBurst(benchmark::State& state) {
  dvnet::FabricModel fm(dvnet::FabricParams{.geometry = {8, 4}});
  sim::Xoshiro256 rng(2);
  sim::Time now = 0;
  for (auto _ : state) {
    fm.send_burst(static_cast<int>(rng.below(32)), static_cast<int>(rng.below(32)), 8,
                  now);
    now += sim::ns(10);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricModelBurst);

void BM_KroneckerEdges(benchmark::State& state) {
  kernels::KroneckerGenerator gen({.scale = 16, .edge_factor = 16});
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.edge(i++ % gen.edges()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KroneckerEdges);

void BM_GupsLfsr(benchmark::State& state) {
  std::uint64_t a = kernels::gups_start(1);
  for (auto _ : state) {
    a = kernels::gups_next(a);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GupsLfsr);

void BM_Xoshiro(benchmark::State& state) {
  sim::Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Xoshiro);

void BM_HeatStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  kernels::HaloGrid3 a(n, n, n), b(n, n, n);
  a.at(n / 2, n / 2, n / 2) = 100.0;
  for (auto _ : state) {
    kernels::heat_step(a, b, 1.0 / 6.0);
    std::swap(a, b);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_HeatStep)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
