#pragma once
// Ideal incompressible flow (paper §VII, Fig. 9 "Vorticity").
//
// 2-D Euler equations in vorticity-streamfunction form, solved pseudo-
// spectrally on a periodic N x N grid with a Kelvin-Helmholtz double shear
// layer initial condition. Each right-hand-side evaluation performs five
// 2-D FFTs (four inverse: u, v, dω/dx, dω/dy; one forward: the nonlinear
// term), exactly the communication profile the paper describes; every 2-D
// FFT costs one distributed matrix transpose.
//
//  * MPI: pack/alltoall/unpack transposes.
//  * Data Vortex (aggressively restructured, as the paper did): transposes
//    scatter elements straight into the peers' VIC DV memory, with cached
//    headers and counter-based completion.

#include <cstdint>

#include "runtime/cluster.hpp"

namespace dvx::apps {

struct VorticityParams {
  int n = 128;       ///< grid points per side (power of two)
  int steps = 8;     ///< RK2 time steps
  double dt = 2e-3;  ///< time step (unit box, |u| ~ 1)
  double shear_delta = 0.05;      ///< shear-layer thickness
  double perturbation = 5e-3;     ///< KH seed amplitude
};

struct VorticityResult {
  double seconds = 0.0;
  int steps = 0;
  double energy0 = 0.0, energy1 = 0.0;        ///< kinetic energy before/after
  double enstrophy0 = 0.0, enstrophy1 = 0.0;  ///< enstrophy before/after
  double omega_checksum = 0.0;                ///< sum |omega_hat| (cross-impl check)
  double energy_drift() const {
    return energy0 != 0.0 ? std::abs(energy1 - energy0) / std::abs(energy0) : 0.0;
  }
  double enstrophy_drift() const {
    return enstrophy0 != 0.0 ? std::abs(enstrophy1 - enstrophy0) / std::abs(enstrophy0)
                             : 0.0;
  }
};

VorticityResult run_vorticity_dv(runtime::Cluster& cluster, const VorticityParams& params);
VorticityResult run_vorticity_mpi(runtime::Cluster& cluster,
                                  const VorticityParams& params);

}  // namespace dvx::apps
