// dvx_bench — the unified experiment driver. All workload logic lives in
// src/exp/ (registry + per-figure adapters); this binary is just the CLI.

#include "exp/driver.hpp"

int main(int argc, char** argv) { return dvx::exp::run_cli(argc, argv); }
