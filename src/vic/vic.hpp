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
// group counters and the FIFO. A burst moves when it is injected: at its
// ready time, which is the transmit call itself unless the chunk is still
// crossing PCIe (DESIGN.md §15). A conforming Data Vortex program only reads
// data after synchronizing on a counter, barrier, or FIFO arrival, so the
// early visibility is unobservable; it is what lets the simulator move
// bursts in O(1) instead of per-packet events, and DV-memory runs in one
// block write.

#include <cstddef>
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
  /// a DV-memory packet is a one-word run (below). A query packet reads its
  /// word now and sends the reply, host-free, when the query lands.
  void deliver(const Packet& p, sim::Time arrival);

  /// Network ingress of one DV-memory run: `words` (whole words, as
  /// DvMemory::write_block takes them) land at `addr`, `addr+1`, ..., word k
  /// at `arrivals.at(k)`, each decrementing `counter` (kNoCounter: none).
  /// One bounds-checked block write and one counted decrement, with exactly
  /// the effects of delivering the words as packets one at a time.
  void deliver_run(int counter, std::uint32_t addr, std::span<const std::byte> words,
                   const ArrivalRamp& arrivals);

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
/// Injection-time resolution (DESIGN.md §15): a transmit meets the switch
/// model at its ready time, so the switch ports serve bursts in the order
/// they become ready, and a barrier arrival is counted when it happens.
class DvFabric : public check::InvariantAuditor {
 public:
  DvFabric(sim::Engine& engine, int nodes, DvFabricParams params = {});
  ~DvFabric() override;

  int nodes() const noexcept { return static_cast<int>(vics_.size()); }
  Vic& vic(int id) { return *vics_.at(static_cast<std::size_t>(id)); }
  dvnet::FabricModel& model() noexcept { return model_; }
  sim::Engine& engine() noexcept { return engine_; }
  const DvFabricParams& params() const noexcept { return params_; }

  /// Injects a batch of packets from `src`'s VIC, first word able to enter
  /// the switch at `ready`; consecutive packets to the same destination
  /// share one fabric burst. With `ready <= now()` the batch is resolved at
  /// once. Otherwise one engine event resolves it at `ready`, and that event
  /// reads `packets` then: the caller keeps the span alive and unchanged
  /// until `ready` (pio_batch does, by awaiting its last chunk's `ready`).
  /// Senders are paced by their PCIe/DMA hand-off times, and receivers see
  /// the ejection times on counters and the FIFO.
  void transmit(int src, std::span<const Packet> packets, sim::Time ready);

  /// The run form of transmit: run k carries the next `runs[k].words` words
  /// (8 bytes each) of `payload`, and every run is non-empty. Moves exactly
  /// what the equivalent kDvMemory packets would, in the same bursts, with
  /// the same timing and the same span contract for both spans.
  void transmit(int src, std::span<const Run> runs, std::span<const std::byte> payload,
                sim::Time ready);

  /// Hardware barrier built on the two reserved counters: rank's VIC arrives
  /// at the current virtual time; every rank resumes at the last arrival
  /// plus the (small, log-depth) hardware latency.
  sim::Coro<void> intrinsic_barrier(int rank);

  /// Epoch invariants across the fabric assembly (DESIGN.md §7): barrier
  /// arrival count within bounds, and per-VIC surprise-FIFO conservation
  /// (deposited == drained + buffered, buffered <= capacity). Registered
  /// with the engine at construction; runs on its audit cadence.
  void audit(std::int64_t now_ps) override;

 private:
  void transmit_now(int src, std::span<const Packet> packets, sim::Time ready);
  void transmit_now(int src, std::span<const Run> runs,
                    std::span<const std::byte> payload, sim::Time ready);
  /// Counts one barrier arrival at now(); the one that completes the phase
  /// releases every rank.
  void arrive_at_barrier();

  sim::Engine& engine_;
  DvFabricParams params_;
  dvnet::FabricModel model_;
  std::vector<std::unique_ptr<Vic>> vics_;

  // Intrinsic barrier bookkeeping.
  int barrier_arrived_ = 0;
  std::uint64_t barrier_phase_ = 0;
  /// Per-rank barrier conditions, released in rank order.
  std::vector<std::unique_ptr<sim::Condition>> barrier_conds_;
};

}  // namespace dvx::vic
