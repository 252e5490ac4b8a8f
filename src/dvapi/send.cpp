// Send paths and remote-memory operations of the Data Vortex API.
//
// The three paths differ only in how bytes reach the VIC: PIO with headers
// (16 B/packet at direct-write bandwidth), PIO with pre-cached headers
// (8 B/packet), or DMA with pre-cached headers (8 B/packet at DMA bandwidth,
// at which point the fabric's 4.4 GB/s port becomes the bottleneck). In all
// cases the fabric pipelines behind the PCIe stream: chunks are handed to
// the switch as they land on the card, not after the whole batch crosses.

#include <algorithm>
#include <stdexcept>
#include <string>

#include "dvapi/context.hpp"

namespace dvx::dvapi {

sim::Coro<void> DvContext::send_direct(const vic::Packet& p) {
  co_await send_direct_batch(std::span<const vic::Packet>(&p, 1));
}

sim::Coro<void> DvContext::pio_batch(std::span<const vic::Packet> batch,
                                     std::int64_t bytes_per_packet) {
  if (batch.empty()) co_return;
  const sim::Time t0 = engine_.now();
  co_await engine_.delay(params_.host_op_overhead);
  sim::Time last = engine_.now();
  std::size_t i = 0;
  while (i < batch.size()) {
    const std::size_t n =
        std::min(batch.size() - i, static_cast<std::size_t>(params_.pio_chunk_packets));
    last = vic().pcie().direct_write(static_cast<std::int64_t>(n) * bytes_per_packet,
                                     engine_.now());
    fabric_.transmit(rank_, batch.subspan(i, n), last);
    i += n;
  }
  packets_sent_ += batch.size();
  // PIO writes are posted but the lane's pace throttles the writing core.
  // The fabric reads each chunk when it lands on the card, the last one at
  // `last`, so awaiting `last` also keeps `batch` alive for it.
  co_await engine_.resume_at(last);
  trace_state(sim::NodeState::kSend, t0);
}

sim::Coro<void> DvContext::send_direct_batch(std::span<const vic::Packet> batch) {
  co_await pio_batch(batch, vic::kPacketBytes);  // header + payload cross PCIe
}

sim::Coro<void> DvContext::send_cached_batch(std::span<const vic::Packet> batch) {
  co_await pio_batch(batch, vic::kWordBytes);  // headers already on the card
}

template <typename HandOff>
sim::Coro<void> DvContext::dma_send(std::size_t words, HandOff hand_off) {
  if (words == 0) co_return;
  const sim::Time t0 = engine_.now();
  co_await engine_.delay(params_.host_op_overhead);

  const auto bytes = static_cast<std::int64_t>(words) * vic::kWordBytes;
  const auto& pp = vic().pcie().params();
  const auto res = vic().dma_to_vic().transfer(bytes, engine_.now());
  // Hand the words to the fabric in DMA-entry-sized chunks, each at the
  // virtual time it lands on the card. The co_await per chunk matters: it
  // puts every sender's chunk hand-offs into the global event order, so
  // concurrent scatters interleave chronologically on shared ejection ports
  // instead of reserving whole batches in rank order. The sender is paced by
  // the (faster-than-fabric) DMA stream, which is what multi-buffering buys.
  const auto entry_words = static_cast<std::size_t>(pp.dma_entry_bytes / vic::kWordBytes);
  sim::Time ready = res.start + pp.dma_setup;
  for (std::size_t i = 0; i < words; i += entry_words) {
    const std::size_t n = std::min(entry_words, words - i);
    ready += sim::transfer_time(static_cast<std::int64_t>(n) * vic::kWordBytes,
                                pp.dma_to_vic_bw);
    co_await engine_.resume_at(ready);
    hand_off(i, n);
  }
  packets_sent_ += words;
  trace_state(sim::NodeState::kSend, t0);
}

sim::Coro<void> DvContext::send_dma_batch(std::span<const vic::Packet> batch) {
  co_await dma_send(batch.size(), [&](std::size_t first, std::size_t n) {
    fabric_.transmit(rank_, batch.subspan(first, n), engine_.now());
  });
}

sim::Coro<void> DvContext::send_dma_runs(std::span<const vic::Run> runs,
                                         std::span<const std::uint64_t> payload) {
  std::size_t covered = 0;
  for (const vic::Run& r : runs) {
    if (r.dst < 0 || r.dst >= nodes()) {
      throw std::invalid_argument("send_dma_runs: destination " + std::to_string(r.dst) +
                                  " outside [0, " + std::to_string(nodes()) + ")");
    }
    if ((r.counter < 0 || r.counter >= vic::kNumGroupCounters) &&
        r.counter != vic::kNoCounter) {
      throw std::invalid_argument("send_dma_runs: group counter " +
                                  std::to_string(r.counter) + " does not exist");
    }
    covered += r.words;
  }
  if (covered != payload.size()) {
    throw std::invalid_argument("send_dma_runs: runs cover " + std::to_string(covered) +
                                " words of a " + std::to_string(payload.size()) +
                                "-word payload");
  }
  // Runs split at DMA-entry boundaries, exactly where the equivalent
  // packets would; (next, done) is the first run not yet fully handed off
  // and how many of its words are.
  std::size_t next = 0;
  std::uint32_t done = 0;
  std::vector<vic::Run> entry;
  co_await dma_send(payload.size(), [&](std::size_t first, std::size_t n) {
    entry.clear();
    for (std::size_t left = n; left > 0;) {
      const vic::Run& r = runs[next];
      const auto take =
          static_cast<std::uint32_t>(std::min<std::size_t>(left, r.words - done));
      if (take > 0) entry.push_back(vic::Run{r.dst, r.counter, r.addr + done, take});
      left -= take;
      done += take;
      if (done == r.words) {
        ++next;
        done = 0;
      }
    }
    fabric_.transmit(rank_, entry, payload.subspan(first, n), engine_.now());
  });
}

sim::Coro<void> DvContext::put(int dst, std::uint32_t addr,
                               std::span<const std::uint64_t> words, int counter) {
  const vic::Run run{dst, counter, addr, static_cast<std::uint32_t>(words.size())};
  co_await send_dma_runs(std::span<const vic::Run>(&run, 1), words);
}

sim::Coro<std::uint64_t> DvContext::query(int dst, std::uint32_t addr) {
  // Arm the reply counter strictly before the query leaves: the reply cannot
  // overtake a packet we have not sent yet.
  co_await counter_set_local(kQueryCounter, 1);
  vic::Packet q;
  q.header = vic::Header{static_cast<std::uint16_t>(dst), vic::DestKind::kQuery,
                         vic::kNoCounter, addr};
  q.payload = vic::encode_header(vic::Header{static_cast<std::uint16_t>(rank_),
                                             vic::DestKind::kDvMemory,
                                             static_cast<std::uint8_t>(kQueryCounter),
                                             kQueryReplySlot});
  co_await send_direct(q);
  co_await counter_wait_zero(kQueryCounter);
  // Pull the reply word across PCIe (an explicit read).
  const sim::Time done = vic().pcie().direct_read(8, engine_.now());
  const std::uint64_t value = vic().memory().read(kQueryReplySlot);
  co_await engine_.resume_at(done);
  co_return value;
}

}  // namespace dvx::dvapi
