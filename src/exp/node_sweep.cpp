#include "exp/node_sweep.hpp"

#include <algorithm>
#include <ostream>

#include "runtime/cluster.hpp"
#include "sim/rng.hpp"

namespace dvx::exp {

bool NodeSweep::has_backend(Backend b) const {
  switch (b) {
    case Backend::kDv:
    case Backend::kMpiIb:
    case Backend::kMpiTorus:
      return true;
  }
  return false;
}

std::vector<RunPoint> NodeSweep::plan(const RunOptions& opt) const {
  PlanBuilder builder(*this, opt);
  ParamMap params = default_params(opt.fast);
  const auto nodes = node_counts(opt);
  const auto backends = selected_backends(opt);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    // Each node count gets its own SplitMix64 sub-seed of the root --seed,
    // and its backends share it, so fig8's points there all search one
    // graph. Folded to 32 bits so the value survives the double-typed
    // ParamMap exactly.
    if (opt.seed != 0 && params.count("seed") != 0) {
      params["seed"] = static_cast<double>(sim::derive_seed(opt.seed, i) >> 32);
    }
    for (const Backend b : backends) builder.add(b, nodes[i], params);
  }
  return builder.take();
}

MetricMap NodeSweep::execute(const RunPoint& point, std::ostream&) const {
  runtime::Cluster cluster(cluster_config(point.backend, point.nodes));
  return run(cluster, point);
}

void NodeSweep::report(const RunOptions& opt, const std::vector<PointResult>& results,
                       runtime::ResultSink& sink) const {
  std::ostream& os = banner(opt);
  const auto nodes = node_counts(opt);
  const auto backends = selected_backends(opt);
  const bool dv_ib = selects(opt, Backend::kDv) && selects(opt, Backend::kMpiIb);
  const std::string headline = headline_metric();
  const auto specs = tables();

  std::vector<runtime::Table> printed;
  for (const SweepTable& spec : specs) {
    std::vector<std::string> cols{"nodes"};
    for (const Backend b : backends) cols.push_back(display_name(b));
    if (dv_ib && spec.metric == headline) cols.push_back("DV/IB");
    printed.emplace_back(spec.title, cols);
  }
  std::vector<double> ratios;
  for (const int n : nodes) {
    std::vector<std::vector<std::string>> rows(specs.size(),
                                               std::vector<std::string>{std::to_string(n)});
    for (const Backend b : backends) {
      const PointResult* r = find_result(results, b, n);
      for (std::size_t t = 0; t < specs.size(); ++t) {
        rows[t].push_back(runtime::fmt(specs[t].display(r->metrics.at(specs[t].metric))));
      }
      sink.add(make_record(*r));
    }
    if (dv_ib) {
      const double ratio = find_result(results, Backend::kDv, n)->metrics.at(headline) /
                           find_result(results, Backend::kMpiIb, n)->metrics.at(headline);
      for (std::size_t t = 0; t < specs.size(); ++t) {
        if (specs[t].metric == headline) rows[t].push_back(runtime::fmt(ratio));
      }
      sink.add(make_derived_record(n, {{"dv_ib_ratio", ratio}}));
      ratios.push_back(ratio);
    }
    for (std::size_t t = 0; t < specs.size(); ++t) printed[t].row(std::move(rows[t]));
  }
  for (const runtime::Table& t : printed) t.print(os);
  os << "\npaper anchors: " << note();

  if (!dv_ib || nodes.size() < 2) return;
  const double first = ratios.front();
  const double last = ratios.back();
  for (const RatioAnchor& a : anchors()) {
    switch (a.claim) {
      case RatioClaim::kGapWidens:
        sink.add_anchor(make_anchor("dv_ib_gap_widens", last, first, last > first, a.detail));
        break;
      case RatioClaim::kAboveAtScale:
        sink.add_anchor(make_anchor("dv_above_ib_at_scale", last, 1.0, last > 1.0, a.detail));
        break;
      case RatioClaim::kAboveEverywhere: {
        const bool above =
            std::none_of(ratios.begin(), ratios.end(), [](double r) { return r <= 1.0; });
        sink.add_anchor(make_anchor("dv_above_ib_everywhere", above ? 1.0 : 0.0, 1.0, above,
                                    a.detail));
        break;
      }
    }
  }
}

}  // namespace dvx::exp
