#include "vic/vic.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

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
                  std::span<const std::uint64_t>(&p.payload, 1), arrival);
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
      // reply destination need not be the original sender.
      Packet reply;
      reply.header = decode_header(p.payload);
      reply.payload = memory_.read(p.header.addr);
      fabric_.transmit(id_, std::span<const Packet>(&reply, 1), arrival);
      break;
    }
  }
  if (p.header.counter != kNoCounter && p.header.kind != DestKind::kGroupCounter) {
    counters_.at(static_cast<int>(p.header.counter)).decrement(arrival);
  }
}

void Vic::deliver_run(int counter, std::uint32_t addr,
                      std::span<const std::uint64_t> words, const ArrivalRamp& arrivals) {
  const check::ScopedNode check_node(id_);
  // Nothing runs between the words of a run, so one block write and one
  // counted decrement leave what the per-word writes and decrements would.
  memory_.write_block(addr, words);
  if (counter != kNoCounter) counters_.at(counter).decrement(arrivals, words.size());
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
  // The hook first: if its width is refused, nothing is left registered.
  engine_.add_window_hook(this, min_remote_latency(), [this] { resolve_window(); });
  engine_.add_auditor(this);
}

DvFabric::~DvFabric() {
  engine_.remove_auditor(this);
  engine_.remove_window_hook(this);
}

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

DvFabric::StagedBurst& DvFabric::stage(int src, sim::Time ready) {
  return staged_.emplace_back(StagedBurst{ready, src, staged_.size(), {}, {}, {}});
}

void DvFabric::transmit(int src, std::span<const Packet> packets, sim::Time ready) {
  if (packets.empty()) return;
  if (resolving_) {
    // A query reply emitted while the resolution replays deliveries: defer
    // it to the in-resolution fixpoint queue (its ready time is already a
    // physical arrival >= the closing window's end).
    resolve_replies_.push_back(StagedBurst{
        ready, src, 0, std::vector<Packet>(packets.begin(), packets.end()), {}, {}});
    return;
  }
  // Rank context: stage for the window-close resolution.
  stage(src, ready).packets.assign(packets.begin(), packets.end());
}

void DvFabric::transmit(int src, std::span<const Run> runs,
                        std::span<const std::uint64_t> payload, sim::Time ready) {
  if (payload.empty()) return;
  // Rank context only: the resolution re-enters transmit with query
  // replies, which are packets.
  DVX_CHECK(!resolving_) << "DV-memory runs transmitted during resolution";
  StagedBurst& b = stage(src, ready);
  b.runs.assign(runs.begin(), runs.end());
  b.payload.assign(payload.begin(), payload.end());
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
                            std::span<const std::uint64_t> payload, sim::Time ready) {
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
      target.deliver_run(r.counter, r.addr, payload.subspan(word, r.words),
                         ArrivalRamp(timing.first_arrival, timing.last_arrival, n, offset));
      offset += r.words;
      word += r.words;
    }
  }
  DVX_CHECK_EQ(word, payload.size()) << "runs do not cover their payload. ";
}

void DvFabric::replay(const StagedBurst& b) {
  if (b.runs.empty()) {
    transmit_now(b.src, b.packets, b.ready);
  } else {
    transmit_now(b.src, b.runs, b.payload, b.ready);
  }
}

void DvFabric::resolve_window() {
  // Window-close resolution: replay every staged burst against the switch
  // model in canonical (ready, src, ledger position) order, a pure function
  // of the window's simulation content. One ledger appends in event order,
  // so the position keeps each source's bursts in stage order.
  std::vector<StagedBurst> batch;
  batch.swap(staged_);
  if (!batch.empty()) {
    std::sort(batch.begin(), batch.end(),
              [](const StagedBurst& a, const StagedBurst& b) {
                if (a.ready != b.ready) return a.ready < b.ready;
                if (a.src != b.src) return a.src < b.src;
                return a.pos < b.pos;
              });
    resolving_ = true;
    for (const StagedBurst& b : batch) replay(b);
    // Fixpoint over query replies: delivering a kQuery packet re-transmits
    // through the fabric; those bursts append to resolve_replies_ and are
    // replayed in emission order (itself canonical) until none remain.
    for (std::size_t i = 0; i < resolve_replies_.size(); ++i) {
      const StagedBurst b = std::move(resolve_replies_[i]);
      replay(b);
    }
    resolve_replies_.clear();
    resolving_ = false;
  }
  resolve_barrier_arrivals();
}

void DvFabric::resolve_barrier_arrivals() {
  std::vector<BarrierArrival> arrivals;
  arrivals.swap(barrier_staged_);
  if (arrivals.empty()) return;
  std::sort(arrivals.begin(), arrivals.end(),
            [](const BarrierArrival& a, const BarrierArrival& b) {
              return a.at != b.at ? a.at < b.at : a.rank < b.rank;
            });
  for (const BarrierArrival& a : arrivals) {
    DVX_CHECK(barrier_arrived_ < nodes())
        << "barrier over-arrival in phase " << barrier_phase_;
    barrier_latest_ = std::max(barrier_latest_, a.at);
    if (++barrier_arrived_ == nodes()) {
      const int levels = std::bit_width(static_cast<unsigned>(nodes() - 1));
      sim::Time release = barrier_latest_ + params_.barrier_base +
                          static_cast<sim::Duration>(levels) * params_.barrier_per_level;
      // Defensive clamp: the release must not land inside the closing
      // window (almost never active: the barrier base cost exceeds the
      // fabric lookahead).
      release = std::max(release, engine_.window_end());
      barrier_arrived_ = 0;
      barrier_latest_ = 0;
      ++barrier_phase_;
      for (auto& cond : barrier_conds_) cond->notify_all(release);
    }
  }
}

sim::Coro<void> DvFabric::intrinsic_barrier(int rank) {
  // Stage the arrival; the VIC-side AND-tree completes at the window-close
  // resolution, which computes the release time and wakes every rank
  // through its own condition.
  const std::uint64_t my_phase = barrier_phase_;
  barrier_staged_.push_back(BarrierArrival{engine_.now(), rank});
  sim::Condition& cond = *barrier_conds_[static_cast<std::size_t>(rank)];
  while (barrier_phase_ == my_phase) co_await cond.wait();
  DVX_CHECK(barrier_phase_ > my_phase) << "barrier phase went backwards";
}

}  // namespace dvx::vic
