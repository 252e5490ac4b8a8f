#include "kernels/kronecker.hpp"

#include <stdexcept>

#include "sim/rng.hpp"

namespace dvx::kernels {

KroneckerGenerator::KroneckerGenerator(KroneckerParams params) : params_(params) {
  if (params.scale < 1 || params.scale > 40) {
    throw std::invalid_argument("Kronecker: scale out of range");
  }
  if (params.edge_factor < 1) {
    throw std::invalid_argument("Kronecker: edge_factor must be positive");
  }
  if (params.a + params.b + params.c >= 1.0) {
    throw std::invalid_argument("Kronecker: a+b+c must be < 1");
  }
}

std::uint64_t KroneckerGenerator::scramble(std::uint64_t v) const {
  // Hash-based permutation within [0, 2^scale): mix, then mask. mix64 is a
  // bijection on 64 bits; masking is not, so fold the high bits back in with
  // a second mix keyed by the seed to keep the map uniform enough for the
  // power-law degree test while remaining deterministic.
  const std::uint64_t mask = vertices() - 1;
  std::uint64_t x = sim::mix64(v ^ (params_.seed * 0x9e3779b97f4a7c15ULL));
  return (x ^ (x >> params_.scale)) & mask;
}

Edge KroneckerGenerator::edge(std::uint64_t index) const {
  sim::Xoshiro256 rng(sim::mix64(index * 0x2545f4914f6cdd1dULL + params_.seed));
  // One draw r picks the quadrant A (0,0) | B (0,1) | C (1,0) | D (1,1) by
  // the cumulative thresholds below: u is set in C and D (r >= a+b), v in B
  // and D, where an odd number of the three thresholds lie at or below r.
  // Comparisons, not branches: the quadrant is random, so a branch on it
  // would mispredict on a large share of the bits.
  const double ab = params_.a + params_.b;
  const double abc = ab + params_.c;
  std::uint64_t u = 0, v = 0;
  for (int bit = 0; bit < params_.scale; ++bit) {
    const double r = rng.uniform();
    const bool ge_a = r >= params_.a;
    const bool ge_ab = r >= ab;
    const bool ge_abc = r >= abc;
    u = (u << 1) | static_cast<std::uint64_t>(ge_ab);
    v = (v << 1) | static_cast<std::uint64_t>(ge_a ^ ge_ab ^ ge_abc);
  }
  return Edge{scramble(u), scramble(v)};
}

std::vector<Edge> KroneckerGenerator::slice(std::uint64_t first, std::uint64_t last) const {
  if (last < first || last > edges()) {
    throw std::out_of_range("Kronecker::slice: bad range");
  }
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(last - first));
  for (std::uint64_t i = first; i < last; ++i) out.push_back(edge(i));
  return out;
}

}  // namespace dvx::kernels
