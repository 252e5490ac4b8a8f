// dvx::serve — arrival determinism, sub-seed stability, admission
// conservation, SLO tail honesty, and session smoke on all three backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/arrival.hpp"
#include "serve/session.hpp"
#include "serve/slo.hpp"
#include "sim/stats.hpp"

namespace serve = dvx::serve;
namespace sim = dvx::sim;
namespace runtime = dvx::runtime;

namespace {

serve::ArrivalConfig small_config() {
  serve::ArrivalConfig cfg;
  cfg.seed = 99;
  cfg.nodes = 8;
  cfg.horizon_us = 120.0;
  cfg.unit_rate_rps = 6.0e5;  // default mix (weight 5.25) offers ~3.15M rps
  return cfg;
}

}  // namespace

TEST(ServeArrival, SameConfigIsByteIdentical) {
  const auto a = serve::generate_arrivals(small_config());
  const auto b = serve::generate_arrivals(small_config());
  ASSERT_GT(a.offered(), 100u);
  EXPECT_EQ(serve::trace_to_string(a), serve::trace_to_string(b));
}

TEST(ServeArrival, SeedChangesTrace) {
  auto cfg = small_config();
  const auto a = serve::generate_arrivals(cfg);
  cfg.seed = 100;
  const auto b = serve::generate_arrivals(cfg);
  EXPECT_NE(serve::trace_to_string(a), serve::trace_to_string(b));
}

TEST(ServeArrival, CanonicalOrderAndPartition) {
  const auto trace = serve::generate_arrivals(small_config());
  std::uint64_t sum = 0;
  for (std::uint64_t n : trace.offered_per_tenant) sum += n;
  EXPECT_EQ(sum, trace.offered());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(trace.requests[i].id, i);
    if (i > 0) {
      EXPECT_LE(trace.requests[i - 1].arrival, trace.requests[i].arrival);
    }
    for (std::uint16_t p : trace.requests[i].peers) {
      EXPECT_NE(p, trace.requests[i].home);
      EXPECT_LT(p, 8);
    }
  }
}

// Sub-seed stability: streams are keyed by tenant NAME, so removing one
// tenant leaves every other tenant's per-node arrival stream unchanged.
TEST(ServeArrival, TenantStreamsAreStableUnderRemoval) {
  auto cfg = small_config();
  cfg.tenants = serve::default_tenants();
  const auto all = serve::generate_arrivals(cfg);
  cfg.tenants.erase(cfg.tenants.begin());  // drop the "hot" tenant
  const auto without_hot = serve::generate_arrivals(cfg);

  const auto stream_of = [](const serve::ArrivalTrace& t, const std::string& name) {
    std::vector<std::pair<std::uint64_t, std::uint16_t>> s;
    for (const serve::Request& r : t.requests) {
      if (t.tenants[r.tenant].name == name) {
        s.emplace_back(static_cast<std::uint64_t>(r.arrival), r.home);
      }
    }
    return s;
  };
  for (const char* name : {"vic_a", "vic_b", "bulk"}) {
    EXPECT_EQ(stream_of(all, name), stream_of(without_hot, name)) << name;
  }
}

// Distinct tenants draw decorrelated streams even at identical rates.
TEST(ServeArrival, DistinctTenantsAreDecorrelated) {
  EXPECT_NE(serve::tenant_stream_seed(7, "a", 0), serve::tenant_stream_seed(7, "b", 0));
  EXPECT_NE(serve::tenant_stream_seed(7, "a", 0), serve::tenant_stream_seed(7, "a", 1));

  auto cfg = small_config();
  cfg.unit_rate_rps = 3.0e6;
  cfg.tenants = {
      {.name = "t0", .rate_weight = 1.0, .fanout = 2, .payload_words = 1},
      {.name = "t1", .rate_weight = 1.0, .fanout = 2, .payload_words = 1},
  };
  const auto trace = serve::generate_arrivals(cfg);
  std::vector<sim::Time> a0, a1;
  for (const serve::Request& r : trace.requests) {
    (r.tenant == 0 ? a0 : a1).push_back(r.arrival);
  }
  ASSERT_GT(a0.size(), 50u);
  ASSERT_GT(a1.size(), 50u);
  const std::size_t n = std::min(a0.size(), a1.size());
  std::size_t equal = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (a0[i] == a1[i]) ++equal;
  }
  EXPECT_LT(equal, n / 10);
}

TEST(ServeArrival, BurstinessPreservesOfferedRate) {
  auto cfg = small_config();
  cfg.unit_rate_rps = 3.0e6;
  cfg.tenants = {{.name = "calm", .rate_weight = 1.0, .burstiness = 0.0,
                  .fanout = 1, .payload_words = 1}};
  const auto calm = serve::generate_arrivals(cfg);
  cfg.tenants = {{.name = "bursty", .rate_weight = 1.0, .burstiness = 4.0,
                  .fanout = 1, .payload_words = 1}};
  const auto bursty = serve::generate_arrivals(cfg);
  // Same mean rate within 25% (different stream, same expectation).
  const double ratio = static_cast<double>(bursty.offered()) /
                       static_cast<double>(calm.offered());
  EXPECT_GT(ratio, 0.75);
  EXPECT_LT(ratio, 1.25);
}

TEST(ServeAdmission, TokenBucketRefillsInVirtualTime) {
  serve::TokenBucket bucket(1.0 / 1000.0, 2.0);  // 1 token per 1000 ps, burst 2
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(500));
  EXPECT_TRUE(bucket.try_take(1000));
  // Refill caps at burst: a long gap buys at most two tokens.
  EXPECT_TRUE(bucket.try_take(1000000));
  EXPECT_TRUE(bucket.try_take(1000000));
  EXPECT_FALSE(bucket.try_take(1000000));
}

TEST(ServeSlo, QuantileUpperBoundHonestOnSparseTail) {
  // 999 fast samples and one slow outlier: the p999 must be bounded by the
  // exact max (1500), not the outlier bucket's upper edge (2048).
  serve::TailLatency lat;
  for (int i = 0; i < 999; ++i) lat.record_ns(10);
  lat.record_ns(1500);
  EXPECT_LE(lat.p999_ns(), 1500.0);
  EXPECT_GE(lat.p999_ns(), 10.0);
  EXPECT_EQ(lat.max_ns(), 1500.0);
  // The midpoint estimator can under-report a tail; the bound cannot.
  sim::LogHistogram h;
  for (int i = 0; i < 999; ++i) h.add(10);
  h.add(1500);
  EXPECT_LE(h.quantile(0.999), h.quantile_upper_bound(0.999));
}

TEST(ServeSlo, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(serve::jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(serve::jain_index({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(serve::jain_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  const double mixed = serve::jain_index({1.0, 0.5, 0.25, 0.125});
  EXPECT_GT(mixed, 0.25);
  EXPECT_LT(mixed, 1.0);
}

namespace {

serve::ArrivalTrace session_trace() {
  serve::ArrivalConfig cfg;
  cfg.seed = 7;
  cfg.nodes = 4;
  cfg.horizon_us = 60.0;
  cfg.unit_rate_rps = 3.0e5;  // default mix offers ~1.6M rps aggregate
  return serve::generate_arrivals(cfg);
}

std::string report_fingerprint(const serve::ServeReport& rep) {
  std::string s;
  for (const serve::TenantOutcome& t : rep.tenants) {
    s += t.name + ":" + std::to_string(t.admission.offered) + "/" +
         std::to_string(t.admission.accepted) + "/" +
         std::to_string(t.admission.shed()) + "/" + std::to_string(t.served) +
         "/" + std::to_string(t.latency.p99_ns()) + "/" +
         std::to_string(t.latency.mean_ns()) + ";";
  }
  s += "roi=" + std::to_string(rep.roi_seconds);
  return s;
}

}  // namespace

TEST(ServeSession, MpiServesEverythingWithoutAdmission) {
  const auto trace = session_trace();
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 4});
  const auto rep = serve::run_serve_mpi(cluster, trace, serve::SessionConfig{});
  EXPECT_EQ(rep.offered(), trace.offered());
  EXPECT_EQ(rep.shed(), 0u);
  EXPECT_EQ(rep.served(), trace.offered());
  EXPECT_GT(rep.roi_seconds, 0.0);
  for (const serve::TenantOutcome& t : rep.tenants) {
    if (t.served > 0) {
      EXPECT_GT(t.latency.p99_ns(), 0.0) << t.name;
    }
  }
}

TEST(ServeSession, DvServesEverythingWithoutAdmission) {
  const auto trace = session_trace();
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 4});
  const auto rep = serve::run_serve_dv(cluster, trace, serve::SessionConfig{});
  EXPECT_EQ(rep.offered(), trace.offered());
  EXPECT_EQ(rep.served(), trace.offered());
  for (const serve::TenantOutcome& t : rep.tenants) {
    if (t.served > 0) {
      EXPECT_GT(t.latency.p99_ns(), 0.0) << t.name;
    }
  }
}

TEST(ServeSession, TorusServesEverything) {
  const auto trace = session_trace();
  runtime::ClusterConfig config{.nodes = 4};
  config.mpi_fabric = runtime::MpiFabric::kTorus;
  runtime::Cluster cluster(config);
  const auto rep = serve::run_serve_mpi(cluster, trace, serve::SessionConfig{});
  EXPECT_EQ(rep.served(), trace.offered());
}

TEST(ServeSession, AdmissionConservationUnderOverload) {
  serve::ArrivalConfig acfg;
  acfg.seed = 13;
  acfg.nodes = 4;
  acfg.horizon_us = 60.0;
  acfg.unit_rate_rps = 1.2e6;  // well past capacity so both shed paths fire
  const auto trace = serve::generate_arrivals(acfg);

  serve::SessionConfig scfg;
  scfg.admission.token_bucket = true;
  scfg.admission.bucket_rate_frac = 0.5;
  scfg.admission.bucket_burst = 4.0;
  scfg.admission.queue_shed = true;
  scfg.admission.max_queue_depth = 8;

  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 4});
  const auto rep = serve::run_serve_mpi(cluster, trace, scfg);
  EXPECT_GT(rep.shed(), 0u);
  EXPECT_EQ(rep.offered(), rep.accepted() + rep.shed());
  EXPECT_EQ(rep.served(), rep.accepted());
  for (const serve::TenantOutcome& t : rep.tenants) {
    EXPECT_EQ(t.admission.offered, t.admission.accepted + t.admission.shed())
        << t.name;
  }
}

TEST(ServeSession, RepeatRunsAreDeterministic) {
  const auto trace = session_trace();
  runtime::Cluster a(runtime::ClusterConfig{.nodes = 4});
  runtime::Cluster b(runtime::ClusterConfig{.nodes = 4});
  EXPECT_EQ(report_fingerprint(serve::run_serve_dv(a, trace, {})),
            report_fingerprint(serve::run_serve_dv(b, trace, {})));
}
