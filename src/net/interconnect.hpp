#pragma once
// Abstract interconnect seam (DESIGN.md §9).
//
// Every network backend the MPI runtime can run over — the InfiniBand
// fat-tree (ib::Fabric), the 3D torus (torus::Fabric), and whatever comes
// next — implements this interface. The contract is deliberately tiny and
// purely functional over virtual time:
//
//   * send_message(src, dst, bytes, ready) answers "when does a message
//     injected at `ready` first/last arrive", mutating only the model's
//     internal next-free-time state. No coroutines, no engine callbacks:
//     the caller (mpi::MpiWorld, a workload) owns the event scheduling.
//   * Determinism: the result may depend only on constructor parameters and
//     the sequence of prior send_message calls. Implementations must not
//     read wall-clock time or unseeded entropy (the `determinism` rule group
//     of tools/dvx_analyze enforces the ban), so the same call sequence
//     yields byte-identical timings on every host.
//   * The DES guarantees nondecreasing `ready` values per source; models
//     may rely on that the way ib::Fabric's link bank does. mpi::MpiWorld
//     (DESIGN.md §15) stages wire transfers and replays them at window
//     closes sorted by (ready, src, ledger position); since every event
//     left pending after window W is at or past W's end, ready values stay
//     nondecreasing across batches too, and the property holds globally. Loopback
//     (src == dst) calls are the one exception: MpiWorld makes them
//     mid-window, so that branch must not touch the contention state.
//
// Adding a backend = implement this class, add an exp::Backend id, and
// register the construction in runtime::Cluster. Nothing in src/mpi changes.

#include <cstdint>

#include "sim/time.hpp"

namespace dvx::net {

/// First/last byte arrival of one message, in virtual time.
struct MsgTiming {
  sim::Time first_arrival;
  sim::Time last_arrival;
};

class Interconnect {
 public:
  virtual ~Interconnect() = default;

  /// Number of endpoints; valid node ids are [0, nodes()).
  virtual int nodes() const noexcept = 0;

  /// Moves `bytes` from `src` to `dst`, first byte injectable at `ready`.
  /// Must model src == dst as a local (host memory) copy. Throws
  /// std::out_of_range when either node id is outside [0, nodes()).
  virtual MsgTiming send_message(int src, int dst, std::int64_t bytes,
                                 sim::Time ready) = 0;

  /// Total bytes offered to the fabric so far (diagnostics).
  virtual std::int64_t bytes_sent() const noexcept = 0;

  /// Clears all contention state (link next-free times, NIC gates, counters)
  /// back to construction values.
  virtual void reset() = 0;

  /// Conservative lower bound on cross-node delivery latency: no message
  /// injected at time t may arrive at another node before t + lookahead().
  /// mpi::MpiWorld registers it as the width of its window hook (DESIGN.md
  /// §12), so the bound must be safe, not tight, and positive: the engine
  /// refuses a hook without one.
  virtual sim::Duration lookahead() const noexcept = 0;
};

}  // namespace dvx::net
