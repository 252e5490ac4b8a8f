#pragma once
// dvapi — the Data Vortex programming model (paper §III).
//
// A DvContext is one node program's handle on its VIC. It exposes the API
// families the paper describes:
//   * three send paths with very different PCIe cost profiles:
//       - send_direct_batch  : header+payload PIO from host (DWr/NoCached)
//       - send_cached_batch  : headers pre-cached in DV memory (DWr/Cached)
//       - send_dma_batch     : DMA payloads + cached headers (DMA/Cached)
//   * remote DV-memory puts and host-free query/reply reads
//   * globally settable group counters with wait-for-zero (+timeout)
//   * the surprise FIFO (poll and wait)
//   * the intrinsic two-counter barrier and an in-house all-to-all
//     "FastBarrier"
//   * bulk DMA between host and DV memory
//
// Batches may mix destinations freely — that is the "aggregation at source"
// scheme the paper's GUPS/BFS ports rely on: one PCIe crossing covers
// packets bound for many different nodes.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "vic/vic.hpp"

namespace dvx::dvapi {

/// Counter ids reserved by convention on top of the hardware reservations
/// (scratch #0, intrinsic barrier #62/#63).
inline constexpr int kQueryCounter = 1;        ///< used by DvContext::query
inline constexpr int kFastBarrierA = 2;        ///< FastBarrier, even phases
inline constexpr int kFastBarrierB = 3;        ///< FastBarrier, odd phases
/// First counter id free for applications using dvapi.
inline constexpr int kFirstAppCounter = 4;

/// DV-memory words reserved by dvapi (per VIC, from the top of the card).
inline constexpr std::uint32_t kScratchSlot = 0;  ///< sink for barrier traffic
inline constexpr std::uint32_t kQueryReplySlot = 1;

struct DvApiParams {
  /// Host-side software cost of assembling a packet (header build, map
  /// lookup); charged per batch op, not per word.
  sim::Duration host_op_overhead = sim::ns(60);
  /// Host-side cost of one FIFO poll of the host ring buffer.
  sim::Duration fifo_poll_overhead = sim::ns(80);
  /// PIO batches cross PCIe in chunks of this many packets so the fabric
  /// pipelines behind the (slower) PCIe stream.
  int pio_chunk_packets = 64;
};

class DvContext {
 public:
  DvContext(sim::Engine& engine, vic::DvFabric& fabric, int rank,
            sim::Tracer* tracer = nullptr, DvApiParams params = {});

  int rank() const noexcept { return rank_; }
  int nodes() const noexcept { return fabric_.nodes(); }
  sim::Engine& engine() noexcept { return engine_; }
  vic::Vic& vic() { return fabric_.vic(rank_); }
  vic::DvFabric& fabric() noexcept { return fabric_; }
  const DvApiParams& params() const noexcept { return params_; }

  // --- send paths (return when the host-side hand-off completes) -----------
  // The fabric reads a batch when each chunk of it reaches the card (DESIGN.md
  // §15), so a batch must stay alive and unchanged until the awaited send
  // returns.

  /// One packet, header+payload PIO'd from host memory (16 B over PCIe).
  sim::Coro<void> send_direct(const vic::Packet& p);

  /// PIO batch, headers travel with payloads (DWr/NoCached path).
  sim::Coro<void> send_direct_batch(std::span<const vic::Packet> batch);

  /// PIO batch with pre-cached destination headers in the sending VIC's DV
  /// memory: only payloads (8 B/word) cross PCIe (DWr/Cached path).
  sim::Coro<void> send_cached_batch(std::span<const vic::Packet> batch);

  /// DMA batch with cached headers (DMA/Cached path): payloads stream at DMA
  /// bandwidth; the fabric (4.4 GB/s/port) becomes the bottleneck.
  sim::Coro<void> send_dma_batch(std::span<const vic::Packet> batch);

  /// DMA/Cached send of DV-memory runs: run k carries the next
  /// `runs[k].words` words of `payload`. Timing, bursts and effects are
  /// those of send_dma_batch over the equivalent packets, but only payload
  /// words are built and moved. Throws std::invalid_argument, before any
  /// PCIe time is charged, when a run names a destination outside
  /// [0, nodes()) or a counter outside [0, kNumGroupCounters) other than
  /// vic::kNoCounter, or when the runs do not cover `payload` exactly.
  /// The send reads `runs` and `payload` at every DMA-entry hand-off, after
  /// it has suspended: both must stay alive and unchanged until the awaited
  /// call returns.
  sim::Coro<void> send_dma_runs(std::span<const vic::Run> runs,
                                std::span<const std::uint64_t> payload);

  // --- remote memory ---------------------------------------------------------

  /// Writes `words` into `dst`'s DV memory at `addr` (DMA/Cached path). Each
  /// word optionally decrements group counter `counter` on arrival. The
  /// one-run case of send_dma_runs, with its argument checks; like it,
  /// `words` must stay alive and unchanged until the awaited put returns.
  sim::Coro<void> put(int dst, std::uint32_t addr, std::span<const std::uint64_t> words,
                      int counter = vic::kNoCounter);

  /// Host-free remote read: query packet out, reply lands in this VIC's
  /// reply slot and decrements the query counter.
  sim::Coro<std::uint64_t> query(int dst, std::uint32_t addr);

  // --- group counters --------------------------------------------------------

  /// Presets a local counter (one posted PCIe write).
  sim::Coro<void> counter_set_local(int counter, std::uint64_t value);

  /// Sets a counter on another VIC via a control packet.
  sim::Coro<void> counter_set_remote(int dst, int counter, std::uint64_t value);

  /// Waits for a local counter to reach zero; `timeout` < 0 waits forever.
  /// Cheap on the host side: the VIC pushes its zero-counter list into host
  /// memory during idle PCIe cycles, so no PCIe read is needed.
  sim::Coro<bool> counter_wait_zero(int counter, sim::Duration timeout = -1);

  // --- surprise FIFO ---------------------------------------------------------

  /// Sends one word to `dst`'s surprise FIFO (PIO path).
  sim::Coro<void> send_fifo(int dst, std::uint64_t payload);

  /// Drains every packet currently visible in the local FIFO.
  sim::Coro<std::vector<vic::Packet>> fifo_poll();

  /// Waits until the local FIFO has at least one packet, then drains it.
  sim::Coro<std::vector<vic::Packet>> fifo_wait();

  // --- barriers --------------------------------------------------------------

  /// The intrinsic whole-system barrier (two reserved group counters,
  /// completed by the VICs without host round trips).
  sim::Coro<void> barrier();

  /// The in-house all-to-all barrier from the paper's Fig. 4 ("Fast
  /// Barrier"): every node decrements a preset counter on every other node.
  sim::Coro<void> fast_barrier();

  // --- bulk host <-> DV-memory DMA -------------------------------------------

  /// Moves `words.size()` words from host memory into local DV memory.
  sim::Coro<void> dma_write_dv(std::uint32_t addr, std::span<const std::uint64_t> words);

  /// Moves words from local DV memory into host memory.
  sim::Coro<void> dma_read_dv(std::uint32_t addr, std::span<std::uint64_t> out);

  /// Multi-buffered variant: queues the DV-memory -> host DMA and returns
  /// its completion time WITHOUT blocking on it (paper §III: "incoming and
  /// outgoing DMA transfers can be overlapped, and multi-buffered DMAs
  /// enable better overlap ... with host computations"). The copy into
  /// `out` happens immediately in simulation terms; virtual completion is
  /// the returned time, and later DMA reads queue behind it.
  sim::Time dma_read_dv_async(std::uint32_t addr, std::span<std::uint64_t> out);

  // --- statistics -------------------------------------------------------------

  std::uint64_t packets_sent() const noexcept { return packets_sent_; }

  /// Sense-reversal state shared by the word collectives (collectives.hpp).
  struct CollectiveState {
    std::uint64_t phase = 0;
    bool primed = false;
  };
  CollectiveState& collective_state() noexcept { return collective_state_; }

 private:
  sim::Coro<void> pio_batch(std::span<const vic::Packet> batch,
                            std::int64_t bytes_per_packet);
  /// The DMA/Cached pacing loop shared by send_dma_batch and send_dma_runs:
  /// `words` payload words cross PCIe in one DMA transfer, and
  /// `hand_off(first, n)` passes each DMA entry's words to the fabric at the
  /// virtual time the entry lands on the card.
  template <typename HandOff>
  sim::Coro<void> dma_send(std::size_t words, HandOff hand_off);
  void trace_state(sim::NodeState s, sim::Time begin);

  sim::Engine& engine_;
  vic::DvFabric& fabric_;
  int rank_;
  sim::Tracer* tracer_;
  DvApiParams params_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t fast_barrier_phase_ = 0;
  bool fast_barrier_primed_ = false;
  CollectiveState collective_state_{};
};

}  // namespace dvx::dvapi
