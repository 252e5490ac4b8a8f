#pragma once
// 3-D heat equation (paper §VII, Fig. 9 "Heat").
//
// Explicit 7-point diffusion on a domain-decomposed grid with insulated
// (reflecting) boundaries; each step exchanges six face halos and checks a
// convergence residual — "a large number of small messages".
//
//  * MPI: six Isend/Irecv pairs per step plus an allreduce residual check —
//    a dozen latency-bound operations per step.
//  * Data Vortex (restructured, as the paper did): every face is written
//    straight into the neighbor's DV-memory halo region; all six faces ride
//    ONE mixed-destination DMA batch; arrival is detected with two
//    sense-alternating group counters; the residual uses the word
//    collectives. One PCIe crossing where MPI pays twelve message set-ups.

#include <cstdint>

#include "runtime/cluster.hpp"

namespace dvx::apps {

struct HeatParams {
  int global_nx = 48, global_ny = 48, global_nz = 48;
  int steps = 40;
  double alpha = 1.0 / 6.0;  ///< stability bound for unit spacing
  bool verify = false;       ///< compare the final field against a serial run
};

struct HeatResult {
  double seconds = 0.0;
  double total_heat = 0.0;        ///< conserved under insulated boundaries
  double final_residual = 0.0;    ///< max |du| of the last step
  double max_serial_diff = 0.0;   ///< only when verify is set
  std::int64_t cell_updates = 0;  ///< cells * steps (for MCUP/s)
};

HeatResult run_heat_dv(runtime::Cluster& cluster, const HeatParams& params);
HeatResult run_heat_mpi(runtime::Cluster& cluster, const HeatParams& params);

}  // namespace dvx::apps
