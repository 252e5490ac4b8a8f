#include "vic/vic.hpp"

#include <bit>
#include <coroutine>
#include <stdexcept>
#include <utility>

#include "check/check.hpp"

namespace dvx::vic {

Vic::Vic(sim::Engine& engine, DvFabric& fabric, int id, const VicParams& params)
    : engine_(engine),
      fabric_(fabric),
      id_(id),
      memory_(params.dv_memory_words),
      counters_(engine, id),
      fifo_(engine, params.fifo_capacity, id),
      pcie_(params.pcie),
      dma_down_(pcie_, PcieDir::kHostToVic, id),
      dma_up_(pcie_, PcieDir::kVicToHost, id) {}

void Vic::deliver(const Packet& p, sim::Time arrival) {
  const check::ScopedNode check_node(id_);
  DVX_CHECK(static_cast<int>(p.header.dst_vic) == id_)
      << "packet for VIC " << p.header.dst_vic << " delivered to VIC " << id_;
  switch (p.header.kind) {
    case DestKind::kDvMemory:
      deliver_run(p.header.counter, p.header.addr,
                  std::as_bytes(std::span<const std::uint64_t>(&p.payload, 1)), arrival);
      return;
    case DestKind::kFifo:
      fifo_.deposit(arrival, p);
      break;
    case DestKind::kGroupCounter:
      counters_.at(static_cast<int>(p.header.addr)).set(arrival, p.payload);
      break;
    case DestKind::kQuery: {
      // Remote read without host intervention (paper §III): the payload is
      // the header of the reply, whose payload is the requested word. The
      // reply destination need not be the original sender. The reply is
      // one more transmit when the query lands, holding its packet by value.
      Packet reply;
      reply.header = decode_header(p.payload);
      reply.payload = memory_.read(p.header.addr);
      engine_.schedule(arrival, [this, reply, arrival] {
        fabric_.transmit(id_, std::span<const Packet>(&reply, 1), arrival);
      });
      break;
    }
  }
  if (p.header.counter != kNoCounter && p.header.kind != DestKind::kGroupCounter) {
    counters_.at(static_cast<int>(p.header.counter)).decrement(arrival);
  }
}

void Vic::deliver_run(int counter, std::uint32_t addr, std::span<const std::byte> words,
                      const ArrivalRamp& arrivals) {
  const check::ScopedNode check_node(id_);
  // Nothing runs between the words of a run, so one block write and one
  // counted decrement leave what the per-word writes and decrements would.
  memory_.write_block(addr, words);
  if (counter != kNoCounter) {
    counters_.at(counter).decrement(arrivals, words.size() / kWordBytes);
  }
}

DvFabric::DvFabric(sim::Engine& engine, int nodes, DvFabricParams params)
    : engine_(engine),
      params_(params),
      model_([&] {
        auto fp = params.fabric;
        if (fp.geometry.ports() < nodes) {
          fp.geometry = dvnet::Geometry::for_ports(nodes, fp.geometry.angles);
        }
        return fp;
      }()) {
  if (nodes <= 0) throw std::invalid_argument("DvFabric: need at least one node");
  vics_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    vics_.push_back(std::make_unique<Vic>(engine, *this, i, params.vic));
    barrier_conds_.push_back(std::make_unique<sim::Condition>(engine));
  }
  engine_.add_auditor(this);
}

DvFabric::~DvFabric() { engine_.remove_auditor(this); }

void DvFabric::audit(std::int64_t now_ps) {
  (void)now_ps;
  DVX_CHECK(barrier_arrived_ >= 0 && barrier_arrived_ < nodes())
      << "intrinsic barrier arrival count out of range: " << barrier_arrived_;
  for (const auto& v : vics_) {
    const check::ScopedNode check_node(v->id());
    const SurpriseFifo& fifo = v->fifo();
    DVX_CHECK(fifo.buffered() <= fifo.capacity()) << "FIFO over capacity";
    DVX_CHECK_EQ(fifo.total_deposited(), fifo.total_drained() + fifo.buffered())
        << "surprise FIFO lost packets. ";
  }
}

void DvFabric::transmit(int src, std::span<const Packet> packets, sim::Time ready) {
  if (packets.empty()) return;
  if (ready <= engine_.now()) {
    transmit_now(src, packets, ready);
    return;
  }
  // Still crossing PCIe: resolve at `ready`, reading the caller's span then.
  engine_.schedule(ready, [this, src, packets, ready] { transmit_now(src, packets, ready); });
}

void DvFabric::transmit(int src, std::span<const Run> runs,
                        std::span<const std::byte> payload, sim::Time ready) {
  if (payload.empty()) return;
  if (ready <= engine_.now()) {
    transmit_now(src, runs, payload, ready);
    return;
  }
  engine_.schedule(ready, [this, src, runs, payload, ready] {
    transmit_now(src, runs, payload, ready);
  });
}

void DvFabric::transmit_now(int src, std::span<const Packet> packets, sim::Time ready) {
  std::size_t i = 0;
  while (i < packets.size()) {
    // Coalesce packets to the same destination into one burst.
    std::size_t j = i + 1;
    const int dst = packets[i].header.dst_vic;
    while (j < packets.size() && packets[j].header.dst_vic == dst) ++j;
    const auto n = static_cast<std::int64_t>(j - i);
    const auto timing = model_.send_burst(src, dst, n, ready);

    // Apply per-packet effects; arrival times interpolated across the burst.
    Vic& target = vic(dst);
    const ArrivalRamp arrivals(timing.first_arrival, timing.last_arrival, n, 0);
    for (std::size_t k = i; k < j; ++k) {
      target.deliver(packets[k], arrivals.at(static_cast<std::int64_t>(k - i)));
    }
    i = j;
  }
}

void DvFabric::transmit_now(int src, std::span<const Run> runs,
                            std::span<const std::byte> payload, sim::Time ready) {
  std::size_t i = 0;
  std::size_t word = 0;
  while (i < runs.size()) {
    // Consecutive runs to the same destination share one burst, as their
    // packets would.
    std::size_t j = i;
    const int dst = runs[i].dst;
    std::int64_t n = 0;
    while (j < runs.size() && runs[j].dst == dst) n += runs[j++].words;
    const auto timing = model_.send_burst(src, dst, n, ready);
    Vic& target = vic(dst);
    std::int64_t offset = 0;
    for (; i < j; ++i) {
      const Run& r = runs[i];
      DVX_CHECK(r.words > 0) << "empty DV-memory run for VIC " << dst;
      target.deliver_run(r.counter, r.addr,
                         payload.subspan(word * kWordBytes, r.words * kWordBytes),
                         ArrivalRamp(timing.first_arrival, timing.last_arrival, n, offset));
      offset += r.words;
      word += r.words;
    }
  }
  DVX_CHECK_EQ(word * kWordBytes, payload.size()) << "runs do not cover their payload. ";
}

void DvFabric::arrive_at_barrier() {
  DVX_CHECK(barrier_arrived_ < nodes())
      << "barrier over-arrival in phase " << barrier_phase_;
  if (++barrier_arrived_ < nodes()) return;
  // Arrivals are counted in time order, so this one is the latest.
  const int levels = std::bit_width(static_cast<unsigned>(nodes() - 1));
  const sim::Time release = engine_.now() + params_.barrier_base +
                            static_cast<sim::Duration>(levels) * params_.barrier_per_level;
  barrier_arrived_ = 0;
  ++barrier_phase_;
  for (auto& cond : barrier_conds_) cond->notify_all(release);
}

sim::Coro<void> DvFabric::intrinsic_barrier(int rank) {
  // The VIC-side AND-tree. The rank parks on its own condition before its
  // arrival is counted, so the arrival that completes the phase wakes every
  // rank, itself included, in rank order.
  struct ParkThenArrive {
    decltype(std::declval<sim::Condition&>().wait()) park;
    DvFabric& fabric;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      park.await_suspend(h);
      fabric.arrive_at_barrier();
    }
    void await_resume() const noexcept {}
  };
  const std::uint64_t my_phase = barrier_phase_;
  co_await ParkThenArrive{barrier_conds_[static_cast<std::size_t>(rank)]->wait(), *this};
  DVX_CHECK(barrier_phase_ > my_phase) << "barrier woke before its phase completed";
}

}  // namespace dvx::vic
