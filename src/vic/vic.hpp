#pragma once
// The Vortex Interface Controller (VIC) and the cluster-wide Data Vortex
// fabric assembly.
//
// A Vic bundles the components of one PCIe card (paper Fig. 2): the DV
// memory, the group-counter file, the surprise FIFO, the PCIe link, and two
// DMA engines. DvFabric owns one Vic per node plus the switch timing model
// and moves packets between them.
//
// Data-vs-time convention: packet *data effects* (DV-memory writes, counter
// sets) are applied as soon as the fabric moves the burst, ahead of the
// words' arrival times, while their *timing* is carried by arrival times on
// group counters and the FIFO. A burst moves when resolve_window replays it
// at the close of the window it was transmitted in. A conforming Data Vortex
// program only reads data after synchronizing on a counter, barrier, or FIFO
// arrival, so the early visibility is unobservable; it is what lets the
// simulator move bursts in O(1) instead of per-packet events, and DV-memory
// runs in one block write.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "check/audit.hpp"
#include "dvnet/fabric_model.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "vic/dma.hpp"
#include "vic/dv_memory.hpp"
#include "vic/group_counters.hpp"
#include "vic/packet.hpp"
#include "vic/pcie.hpp"
#include "vic/surprise_fifo.hpp"

namespace dvx::vic {

struct VicParams {
  std::size_t dv_memory_words = DvMemory::kDefaultWords;
  std::size_t fifo_capacity = SurpriseFifo::kDefaultCapacity;
  PcieParams pcie{};
};

class DvFabric;

class Vic {
 public:
  Vic(sim::Engine& engine, DvFabric& fabric, int id, const VicParams& params);

  int id() const noexcept { return id_; }
  DvMemory& memory() noexcept { return memory_; }
  GroupCounterFile& counters() noexcept { return counters_; }
  SurpriseFifo& fifo() noexcept { return fifo_; }
  PcieLink& pcie() noexcept { return pcie_; }
  DmaEngine& dma_to_vic() noexcept { return dma_down_; }
  DmaEngine& dma_from_vic() noexcept { return dma_up_; }

  /// Network ingress: applies one packet whose last bit lands at `arrival`;
  /// a DV-memory packet is a one-word run (below). Query packets trigger a
  /// host-free reply through the fabric.
  void deliver(const Packet& p, sim::Time arrival);

  /// Network ingress of one DV-memory run: `words` land at `addr`, `addr+1`,
  /// ..., word k at `arrivals.at(k)`, each decrementing `counter`
  /// (kNoCounter: none). One bounds-checked block write and one counted
  /// decrement, with exactly the effects of delivering the words as
  /// packets one at a time.
  void deliver_run(int counter, std::uint32_t addr,
                   std::span<const std::uint64_t> words, const ArrivalRamp& arrivals);

 private:
  sim::Engine& engine_;
  DvFabric& fabric_;
  int id_;
  DvMemory memory_;
  GroupCounterFile counters_;
  SurpriseFifo fifo_;
  PcieLink pcie_;
  DmaEngine dma_down_;
  DmaEngine dma_up_;
};

struct DvFabricParams {
  dvnet::FabricParams fabric{};
  VicParams vic{};
  /// Intrinsic hardware barrier (two reserved group counters, handled by the
  /// VICs without host round trips): nearly flat in node count (Fig. 4).
  sim::Duration barrier_base = sim::ns(900);
  sim::Duration barrier_per_level = sim::ns(40);
};

/// The whole Data Vortex side of the cluster: one switch + N VICs.
///
/// Windowed operation (DESIGN.md §15): the fabric windows its engine at
/// min_remote_latency() when it is built. Rank-context transmits and barrier
/// arrivals are staged into one ledger and resolved at the engine's window
/// close in canonical (ready, src, ledger position) order, so the switch
/// model and the destination VICs are only mutated by the resolution.
class DvFabric : public check::InvariantAuditor {
 public:
  DvFabric(sim::Engine& engine, int nodes, DvFabricParams params = {});
  ~DvFabric() override;

  int nodes() const noexcept { return static_cast<int>(vics_.size()); }
  Vic& vic(int id) { return *vics_.at(static_cast<std::size_t>(id)); }
  dvnet::FabricModel& model() noexcept { return model_; }
  sim::Engine& engine() noexcept { return engine_; }
  const DvFabricParams& params() const noexcept { return params_; }

  /// Injects a batch of packets from `src`'s VIC, already resident on the
  /// card, first word able to enter the switch at `ready`. The batch is
  /// staged for the window-close resolution, where consecutive packets to
  /// the same destination share one fabric burst; senders are paced by
  /// their PCIe/DMA hand-off times, and receivers see the ejection times on
  /// counters and the FIFO.
  void transmit(int src, std::span<const Packet> packets, sim::Time ready);

  /// The run form of transmit: run k carries the next `runs[k].words` words
  /// of `payload`, and every run is non-empty. Moves exactly what the
  /// equivalent kDvMemory packets would, in the same bursts, with the same
  /// timing and staging rules; only the payload words are staged.
  void transmit(int src, std::span<const Run> runs,
                std::span<const std::uint64_t> payload, sim::Time ready);

  /// Hardware barrier built on the two reserved counters: rank's VIC arrives
  /// at the current virtual time; resumes when every VIC has arrived plus
  /// the (small, log-depth) hardware latency.
  sim::Coro<void> intrinsic_barrier(int rank);

  /// Conservative lower bound on remote delivery latency, the DV analogue
  /// of net::Interconnect::lookahead(): a packet already resident on the
  /// source card still pays at least the uncontended fabric traversal
  /// before it can eject anywhere (PCIe/DMA time only adds to that).
  /// The constructor registers it as the width of the fabric's window hook
  /// (DESIGN.md §12); a fabric without a positive one cannot be built.
  sim::Duration min_remote_latency() const noexcept {
    return model_.base_latency();
  }

  /// Epoch invariants across the fabric assembly (DESIGN.md §7): barrier
  /// arrival count within bounds, and per-VIC surprise-FIFO conservation
  /// (deposited == drained + buffered, buffered <= capacity). Registered
  /// with the engine at construction; runs on its audit cadence.
  void audit(std::int64_t now_ps) override;

 private:
  /// One rank-context injection parked in the ledger until the window-close
  /// resolution replays it against the switch model.
  struct StagedBurst {
    sim::Time ready;
    int src;
    std::size_t pos;  ///< ledger position at append: stage order
    // Owned copies (caller spans die early): packets, or runs over payload.
    std::vector<Packet> packets;
    std::vector<Run> runs;
    std::vector<std::uint64_t> payload;
  };
  struct BarrierArrival {
    sim::Time at;
    int rank;
  };

  void transmit_now(int src, std::span<const Packet> packets, sim::Time ready);
  void transmit_now(int src, std::span<const Run> runs,
                    std::span<const std::uint64_t> payload, sim::Time ready);
  StagedBurst& stage(int src, sim::Time ready);
  void replay(const StagedBurst& b);
  void resolve_window();
  void resolve_barrier_arrivals();

  sim::Engine& engine_;
  DvFabricParams params_;
  dvnet::FabricModel model_;
  std::vector<std::unique_ptr<Vic>> vics_;

  // Intrinsic barrier bookkeeping.
  int barrier_arrived_ = 0;
  std::uint64_t barrier_phase_ = 0;
  sim::Time barrier_latest_ = 0;

  // Window staging.
  bool resolving_ = false;  ///< inside resolve_window (query replies re-enter)
  std::vector<StagedBurst> staged_;
  std::vector<BarrierArrival> barrier_staged_;
  std::vector<StagedBurst> resolve_replies_;  ///< replies emitted mid-resolve
  /// Per-rank barrier conditions, released in rank order.
  std::vector<std::unique_ptr<sim::Condition>> barrier_conds_;
};

}  // namespace dvx::vic
