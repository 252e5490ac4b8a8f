#pragma once
// SNAP — the SN (Discrete Ordinates) Application Proxy (paper §VII).
//
// Mimics the computational and communication structure of a neutron
// transport sweep: a 3-D spatial mesh, 8 angular octants with `nang` angles
// each, `ng` energy groups, diamond-difference cell updates, and source
// iteration on the scattering term. The y-z plane is decomposed over a 2-D
// process grid (KBA): sweeps travel pipelined wavefronts of x-chunks, each
// chunk passing its outgoing y/z face angular fluxes downstream.
//
//  * MPI: one receive + one send per (octant, chunk) per upstream/downstream
//    direction — the reference wavefront pipeline.
//  * Data Vortex: a "best-effort port" as the paper describes: face
//    payloads are put into the downstream VIC's DV memory with parity
//    counters and explicit credit packets for flow control, with y and z
//    faces aggregated into a single DMA batch per chunk.

#include <cstdint>

#include "runtime/cluster.hpp"

namespace dvx::apps {

struct SnapParams {
  int nx = 32, ny = 24, nz = 24;  ///< global spatial mesh
  int nang = 16;                  ///< angles per octant (8 octants total)
  int ng = 2;                     ///< energy groups
  int ichunk = 8;                 ///< x-planes per pipelined chunk
  int max_outer = 4;              ///< source (scattering) iterations
  double sigma_t = 1.0;           ///< total cross-section
  double sigma_s = 0.5;           ///< isotropic scattering cross-section
  double dx = 0.5, dy = 0.5, dz = 0.5;
};

struct SnapResult {
  double seconds = 0.0;
  int outer_iterations = 0;
  double residual = 0.0;        ///< final max |phi - phi_prev|
  double flux_sum = 0.0;        ///< checksum of the converged scalar flux
  double min_flux = 0.0;        ///< must stay non-negative
  std::int64_t cell_angle_updates = 0;
};

SnapResult run_snap_dv(runtime::Cluster& cluster, const SnapParams& params);
SnapResult run_snap_mpi(runtime::Cluster& cluster, const SnapParams& params);

}  // namespace dvx::apps
