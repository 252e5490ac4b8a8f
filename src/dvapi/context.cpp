#include "dvapi/context.hpp"

#include <stdexcept>

namespace dvx::dvapi {

DvContext::DvContext(sim::Engine& engine, vic::DvFabric& fabric, int rank,
                     sim::Tracer* tracer, DvApiParams params)
    : engine_(engine), fabric_(fabric), rank_(rank), tracer_(tracer), params_(params) {
  if (rank < 0 || rank >= fabric.nodes()) {
    throw std::out_of_range("DvContext: rank out of range");
  }
}

void DvContext::trace_state(sim::NodeState s, sim::Time begin) {
  if (tracer_ != nullptr) tracer_->record_state(rank_, s, begin, engine_.now());
}

sim::Coro<void> DvContext::counter_set_local(int counter, std::uint64_t value) {
  const sim::Time t0 = engine_.now();
  const sim::Time done = vic().pcie().direct_write(8, t0);
  vic().counters().at(counter).set(done, value);
  co_await engine_.delay(params_.host_op_overhead);  // posted: host moves on
  trace_state(sim::NodeState::kSend, t0);
}

sim::Coro<void> DvContext::counter_set_remote(int dst, int counter, std::uint64_t value) {
  vic::Packet p;
  p.header = vic::Header{static_cast<std::uint16_t>(dst), vic::DestKind::kGroupCounter,
                         vic::kNoCounter, static_cast<std::uint32_t>(counter)};
  p.payload = value;
  co_await send_direct(p);
}

sim::Coro<bool> DvContext::counter_wait_zero(int counter, sim::Duration timeout) {
  const sim::Time t0 = engine_.now();
  const bool ok = co_await vic().counters().at(counter).wait_zero(timeout);
  trace_state(sim::NodeState::kWait, t0);
  co_return ok;
}

sim::Coro<void> DvContext::send_fifo(int dst, std::uint64_t payload) {
  vic::Packet p;
  p.header =
      vic::Header{static_cast<std::uint16_t>(dst), vic::DestKind::kFifo, vic::kNoCounter, 0};
  p.payload = payload;
  co_await send_direct(p);
}

sim::Time DvContext::dma_read_dv_async(std::uint32_t addr, std::span<std::byte> out) {
  vic().memory().read_block(addr, out);
  const auto bytes = static_cast<std::int64_t>(out.size());
  return vic().dma_from_vic().transfer(bytes, engine_.now()).complete;
}

sim::Coro<std::vector<vic::Packet>> DvContext::fifo_poll() {
  co_await engine_.delay(params_.fifo_poll_overhead);
  co_return vic().fifo().poll();
}

sim::Coro<std::vector<vic::Packet>> DvContext::fifo_wait() {
  const sim::Time t0 = engine_.now();
  co_await engine_.delay(params_.fifo_poll_overhead);
  auto out = co_await vic().fifo().wait_packets();
  trace_state(sim::NodeState::kWait, t0);
  co_return out;
}

sim::Coro<void> DvContext::dma_write_dv(std::uint32_t addr,
                                        std::span<const std::uint64_t> words) {
  const sim::Time t0 = engine_.now();
  vic().memory().write_block(addr, std::as_bytes(words));
  const auto res =
      vic().dma_to_vic().transfer(static_cast<std::int64_t>(words.size()) * 8, t0);
  co_await engine_.resume_at(res.complete);
  trace_state(sim::NodeState::kSend, t0);
}

sim::Coro<void> DvContext::dma_read_dv(std::uint32_t addr, std::span<std::uint64_t> out) {
  const sim::Time t0 = engine_.now();
  vic().memory().read_block(addr, std::as_writable_bytes(out));
  const auto bytes = static_cast<std::int64_t>(out.size()) * 8;
  // Tiny reads beat the DMA setup cost with plain PIO loads (the VIC's
  // host-pushed status lists exist for the same reason); big reads DMA.
  sim::Time done;
  if (bytes <= 32 * 8) {
    done = vic().pcie().direct_read(bytes, t0);
  } else {
    done = vic().dma_from_vic().transfer(bytes, t0).complete;
  }
  co_await engine_.resume_at(done);
  trace_state(sim::NodeState::kRecv, t0);
}

}  // namespace dvx::dvapi
