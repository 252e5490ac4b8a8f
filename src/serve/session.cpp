#include "serve/session.hpp"

#include <memory>
#include <utility>

#include "check/check.hpp"
#include "dvapi/collectives.hpp"
#include "obs/collector.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"

namespace dvx::serve {
namespace {

/// Application tags (MiniMPI reserves the collective tag space at >= 1<<20).
constexpr int kReqTag = 11;
constexpr int kRepTag = 12;

/// One header word rides in front of every request (MPI word 0 / the DV
/// fifo word itself): kind (2 bits) | source rank (16 bits) | payload words.
enum class MsgKind : std::uint64_t { kRequest = 1, kReply = 2, kTerm = 3 };

constexpr std::uint64_t kWordsMask = (std::uint64_t{1} << 46) - 1;

constexpr std::uint64_t encode_word(MsgKind k, int src, std::uint64_t words) {
  return (static_cast<std::uint64_t>(k) << 62) |
         (static_cast<std::uint64_t>(src) << 46) | (words & kWordsMask);
}
constexpr std::uint64_t word_kind(std::uint64_t w) { return w >> 62; }
constexpr int word_src(std::uint64_t w) {
  return static_cast<int>((w >> 46) & 0xFFFF);
}
constexpr std::uint64_t word_words(std::uint64_t w) { return w & kWordsMask; }

/// Per-rank payload landing zone in DV memory, above everything dvapi
/// reserves; sized for the largest tenant payload.
constexpr std::uint32_t kPayloadSlotWords = 4096;
constexpr std::uint32_t payload_addr(int src_rank) {
  return dvapi::kFirstFreeDvWord +
         static_cast<std::uint32_t>(src_rank) * kPayloadSlotWords;
}

/// Ambient obs mirrors, indexed by tenant (null when nothing collects).
/// Counters tick inline; the latency histogram is order-dependent and is
/// folded once at finish() from the per-rank trackers.
struct Tally {
  std::vector<obs::Histogram*> obs_latency;
  std::vector<obs::Counter*> obs_accepted;
  std::vector<obs::Counter*> obs_shed;
};

struct RankState {
  RankState(sim::Engine& engine, int nodes)
      : queue(engine), reply_cond(engine), done_cond(engine) {
    sent_to.assign(static_cast<std::size_t>(nodes), 0);
  }
  // Per-tenant tallies, one set per rank; finish() merges them in rank
  // order.
  std::vector<AdmissionCounters> admission;
  std::vector<std::uint64_t> served;
  std::vector<TailLatency> latency;
  sim::Mailbox<const Request*> queue;  ///< admitted requests (null = no more)
  std::vector<TokenBucket> buckets;    ///< per tenant; empty when bucket off
  std::int64_t queue_len = 0;          ///< admitted but unfinished
  std::int64_t replies_pending = 0;    ///< current request's missing replies
  sim::Condition reply_cond;
  bool dispatcher_done = false;
  sim::Condition done_cond;
  std::vector<std::uint64_t> sent_to;  ///< request messages sent per peer
  std::uint64_t received = 0;          ///< request messages served
  std::uint64_t expected = 0;          ///< learned via all-to-all at teardown
  bool term_seen = false;
};

struct Session {
  Session(const ArrivalTrace& t, const SessionConfig& c, int nodes)
      : trace(t), cfg(c) {
    const std::size_t nt = t.tenants.size();
    tally.obs_latency.assign(nt, nullptr);
    tally.obs_accepted.assign(nt, nullptr);
    tally.obs_shed.assign(nt, nullptr);
    if (obs::Registry* reg = obs::metrics()) {
      for (std::size_t i = 0; i < nt; ++i) {
        const obs::Labels labels{{"tenant", t.tenants[i].name}};
        tally.obs_latency[i] = reg->histogram("serve.request.latency_ns", labels);
        tally.obs_accepted[i] = reg->counter("serve.admission.accepted", labels);
        tally.obs_shed[i] = reg->counter("serve.admission.shed", labels);
      }
    }
    local.assign(static_cast<std::size_t>(nodes), {});
    for (const Request& r : t.requests) {
      local[r.home].push_back(&r);
    }
    // Token-bucket refill: a fraction of this tenant's own per-node offered
    // rate, derived from the trace itself so the policy tracks the sweep.
    const double horizon_ps = t.horizon_us * 1e6;
    bucket_rate.assign(t.tenants.size(), 0.0);
    for (std::size_t i = 0; i < nt; ++i) {
      bucket_rate[i] = c.admission.bucket_rate_frac *
                       static_cast<double>(t.offered_per_tenant[i]) /
                       (horizon_ps * nodes);
    }
  }

  const ArrivalTrace& trace;
  const SessionConfig& cfg;
  Tally tally;
  std::vector<std::vector<const Request*>> local;  ///< per-rank trace slice
  std::vector<double> bucket_rate;                 ///< tokens/ps per tenant
  std::vector<std::unique_ptr<RankState>> ranks;
};

void init_rank(Session& s, RankState& st) {
  const std::size_t nt = s.trace.tenants.size();
  st.admission.assign(nt, {});
  st.served.assign(nt, 0);
  st.latency.assign(nt, {});
  if (!s.cfg.admission.token_bucket) return;
  st.buckets.reserve(nt);
  for (double rate : s.bucket_rate) {
    st.buckets.emplace_back(rate, s.cfg.admission.bucket_burst);
  }
}

void record_latency(RankState& st, const Request& r, sim::Duration lat_ps) {
  const auto ns =
      static_cast<std::uint64_t>(lat_ps < 0 ? 0 : lat_ps) / 1000;
  st.latency[r.tenant].record_ns(ns);
  ++st.served[r.tenant];
}

/// Open-loop injection: wake at each offered arrival, admit or shed, hand
/// accepted requests to the server queue. A null sentinel closes the queue.
sim::Coro<void> injector(sim::Engine& engine, Session& s, RankState& st,
                         int rank, sim::Time t0) {
  const AdmissionConfig& adm = s.cfg.admission;
  for (const Request* r : s.local[static_cast<std::size_t>(rank)]) {
    co_await engine.resume_at(t0 + r->arrival);
    AdmissionCounters& counters = st.admission[r->tenant];
    ++counters.offered;
    if (adm.queue_shed && st.queue_len >= adm.max_queue_depth) {
      ++counters.shed_queue;
      if (s.tally.obs_shed[r->tenant]) s.tally.obs_shed[r->tenant]->inc();
      continue;
    }
    if (adm.token_bucket && !st.buckets[r->tenant].try_take(engine.now())) {
      ++counters.shed_bucket;
      if (s.tally.obs_shed[r->tenant]) s.tally.obs_shed[r->tenant]->inc();
      continue;
    }
    ++counters.accepted;
    if (s.tally.obs_accepted[r->tenant]) s.tally.obs_accepted[r->tenant]->inc();
    ++st.queue_len;
    st.queue.push(engine.now(), r);
  }
  st.queue.push(engine.now(), nullptr);
}

/// Deterministic payload filler (content is irrelevant to timing, but real
/// words keep the data path honest).
std::uint64_t filler(const Request& r, std::uint32_t w) {
  return sim::mix64(r.id * 1315423911ULL + w);
}

// --------------------------------------------------------------------------
// MPI side: tagged messages; payload size picks eager vs rendezvous.
// --------------------------------------------------------------------------

sim::Coro<void> serve_one_mpi(mpi::Comm comm, runtime::NodeCtx& node,
                              Session& s, RankState& st, const Request& r,
                              sim::Time t0) {
  co_await node.compute_flops(s.cfg.costs.request_flops);
  std::vector<mpi::Request> ops;
  ops.reserve(r.peers.size() * 2);
  for (std::uint16_t peer : r.peers) ops.push_back(comm.irecv(peer, kRepTag));
  for (std::uint16_t peer : r.peers) {
    std::vector<std::uint64_t> data(r.payload_words);
    data[0] = encode_word(MsgKind::kRequest, comm.rank(), r.payload_words);
    for (std::uint32_t w = 1; w < r.payload_words; ++w) data[w] = filler(r, w);
    ++st.sent_to[peer];
    ops.push_back(comm.isend(peer, kReqTag, std::move(data)));
  }
  co_await comm.wait_all(std::move(ops));
  record_latency(st, r, node.now() - (t0 + r.arrival));
  --st.queue_len;
}

sim::Coro<void> dispatcher_mpi(mpi::Comm comm, runtime::NodeCtx& node,
                               Session& s, RankState& st) {
  for (;;) {
    if (st.term_seen && st.received >= st.expected) break;
    mpi::Message msg = co_await comm.recv(mpi::kAnySource, kReqTag);
    const std::uint64_t head = msg.data.at(0);
    if (word_kind(head) == static_cast<std::uint64_t>(MsgKind::kTerm)) {
      st.term_seen = true;
      continue;
    }
    ++st.received;
    co_await node.compute_flops(s.cfg.costs.serve_flops_per_word *
                                static_cast<double>(word_words(head)));
    std::vector<std::uint64_t> reply{encode_word(MsgKind::kReply, comm.rank(), 0)};
    co_await comm.send(msg.src, kRepTag, std::move(reply));
  }
  st.dispatcher_done = true;
  st.done_cond.notify_all(comm.engine().now());
}

// --------------------------------------------------------------------------
// DV side: fifo words carry headers; payloads > 1 word travel as remote
// puts (DMA/Cached) into a per-sender landing zone before the fifo notify.
// --------------------------------------------------------------------------

sim::Coro<void> serve_one_dv(dvapi::DvContext& ctx, runtime::NodeCtx& node,
                             Session& s, RankState& st, const Request& r,
                             sim::Time t0, std::vector<std::uint64_t>& scratch) {
  co_await node.compute_flops(s.cfg.costs.request_flops);
  // Set before the first send: a reply can race the remaining fan-out.
  st.replies_pending = static_cast<std::int64_t>(r.peers.size());
  for (std::uint16_t peer : r.peers) {
    if (r.payload_words > 1) {
      scratch.resize(r.payload_words - 1);
      for (std::uint32_t w = 0; w + 1 < r.payload_words; ++w) {
        scratch[w] = filler(r, w + 1);
      }
      co_await ctx.put(peer, payload_addr(ctx.rank()), scratch);
    }
    ++st.sent_to[peer];
    co_await ctx.send_fifo(
        peer, encode_word(MsgKind::kRequest, ctx.rank(), r.payload_words));
  }
  while (st.replies_pending > 0) co_await st.reply_cond.wait();
  record_latency(st, r, node.now() - (t0 + r.arrival));
  --st.queue_len;
}

sim::Coro<void> dispatcher_dv(dvapi::DvContext& ctx, runtime::NodeCtx& node,
                              Session& s, RankState& st) {
  sim::Engine& engine = ctx.engine();
  for (;;) {
    if (st.term_seen && st.received >= st.expected) break;
    const auto packets = co_await ctx.fifo_wait();
    for (const auto& p : packets) {
      const std::uint64_t w = p.payload;
      if (word_kind(w) == static_cast<std::uint64_t>(MsgKind::kRequest)) {
        ++st.received;
        co_await node.compute_flops(s.cfg.costs.serve_flops_per_word *
                                    static_cast<double>(word_words(w)));
        co_await ctx.send_fifo(word_src(w),
                               encode_word(MsgKind::kReply, ctx.rank(), 0));
      } else if (word_kind(w) == static_cast<std::uint64_t>(MsgKind::kReply)) {
        --st.replies_pending;
        st.reply_cond.notify_all(engine.now());
      } else {
        st.term_seen = true;
      }
    }
  }
  st.dispatcher_done = true;
  st.done_cond.notify_all(engine.now());
}

ServeReport finish(Session& s, double roi_seconds) {
  // Merge the rank-local tallies in rank order, a deterministic fold.
  const std::size_t nt = s.trace.tenants.size();
  std::vector<AdmissionCounters> admission(nt);
  std::vector<std::uint64_t> served(nt, 0);
  std::vector<TailLatency> latency(nt);
  for (const auto& rank : s.ranks) {
    if (!rank || rank->admission.empty()) continue;
    for (std::size_t i = 0; i < nt; ++i) {
      admission[i].merge(rank->admission[i]);
      served[i] += rank->served[i];
      latency[i].merge(rank->latency[i]);
    }
  }
  ServeReport report;
  report.roi_seconds = roi_seconds;
  report.tenants.reserve(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    const AdmissionCounters& adm = admission[i];
    // Conservation invariants (ISSUE: level-1): every offered request was
    // either accepted or shed, and every accepted request was served —
    // the session never silently drops work.
    DVX_CHECK_EQ(adm.offered, adm.accepted + adm.shed())
        << "serve admission conservation violated for tenant "
        << s.trace.tenants[i].name << ". ";
    DVX_CHECK_EQ(adm.offered, s.trace.offered_per_tenant[i])
        << "serve injector lost offered requests for tenant "
        << s.trace.tenants[i].name << ". ";
    DVX_CHECK_EQ(served[i], adm.accepted)
        << "serve session dropped accepted requests for tenant "
        << s.trace.tenants[i].name << ". ";
    if (s.tally.obs_latency[i] != nullptr) {
      s.tally.obs_latency[i]->absorb(latency[i].histogram());
    }
    TenantOutcome out;
    out.name = s.trace.tenants[i].name;
    out.admission = adm;
    out.served = served[i];
    out.latency = latency[i];
    report.tenants.push_back(std::move(out));
  }
  return report;
}

}  // namespace

std::uint64_t ServeReport::offered() const noexcept {
  std::uint64_t n = 0;
  for (const TenantOutcome& t : tenants) n += t.admission.offered;
  return n;
}
std::uint64_t ServeReport::accepted() const noexcept {
  std::uint64_t n = 0;
  for (const TenantOutcome& t : tenants) n += t.admission.accepted;
  return n;
}
std::uint64_t ServeReport::shed() const noexcept {
  std::uint64_t n = 0;
  for (const TenantOutcome& t : tenants) n += t.admission.shed();
  return n;
}
std::uint64_t ServeReport::served() const noexcept {
  std::uint64_t n = 0;
  for (const TenantOutcome& t : tenants) n += t.served;
  return n;
}

ServeReport run_serve_mpi(runtime::Cluster& cluster, const ArrivalTrace& trace,
                          const SessionConfig& cfg) {
  const int nodes = cluster.nodes();
  Session s(trace, cfg, nodes);
  s.ranks.resize(static_cast<std::size_t>(nodes));
  const auto run = cluster.run_mpi(
      [&](mpi::Comm comm, runtime::NodeCtx& node) -> sim::Coro<void> {
        const int rank = comm.rank();
        sim::Engine& engine = comm.engine();
        s.ranks[static_cast<std::size_t>(rank)] =
            std::make_unique<RankState>(engine, nodes);
        RankState& st = *s.ranks[static_cast<std::size_t>(rank)];
        init_rank(s, st);
        co_await comm.barrier();
        const sim::Time t0 = engine.now();
        node.roi_begin();
        engine.spawn(injector(engine, s, st, rank, t0));
        engine.spawn(dispatcher_mpi(comm, node, s, st));
        for (;;) {
          const Request* r = co_await st.queue.receive();
          if (r == nullptr) break;
          co_await serve_one_mpi(comm, node, s, st, *r, t0);
        }
        // Teardown (the GUPS idiom): learn how many requests each peer sent
        // us, then wake our dispatcher with a loopback terminator; it exits
        // once that count is fully served.
        std::vector<std::vector<std::uint64_t>> counts(
            static_cast<std::size_t>(nodes));
        for (int p = 0; p < nodes; ++p) {
          counts[static_cast<std::size_t>(p)] = {
              st.sent_to[static_cast<std::size_t>(p)]};
        }
        const auto incoming = co_await comm.alltoall(std::move(counts));
        st.expected = 0;
        for (int p = 0; p < nodes; ++p) {
          if (p != rank) st.expected += incoming[static_cast<std::size_t>(p)][0];
        }
        std::vector<std::uint64_t> term{encode_word(MsgKind::kTerm, rank, 0)};
        co_await comm.send(rank, kReqTag, std::move(term));
        while (!st.dispatcher_done) co_await st.done_cond.wait();
        DVX_CHECK_EQ(st.received, st.expected)
            << "serve request conservation violated (mpi, rank " << rank << "). ";
        co_await comm.barrier();
        node.roi_end();
      });
  return finish(s, run.roi_seconds());
}

ServeReport run_serve_dv(runtime::Cluster& cluster, const ArrivalTrace& trace,
                         const SessionConfig& cfg) {
  const int nodes = cluster.nodes();
  Session s(trace, cfg, nodes);
  s.ranks.resize(static_cast<std::size_t>(nodes));
  const auto run = cluster.run_dv(
      [&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> sim::Coro<void> {
        const int rank = ctx.rank();
        sim::Engine& engine = ctx.engine();
        s.ranks[static_cast<std::size_t>(rank)] =
            std::make_unique<RankState>(engine, nodes);
        RankState& st = *s.ranks[static_cast<std::size_t>(rank)];
        init_rank(s, st);
        co_await ctx.barrier();
        const sim::Time t0 = engine.now();
        node.roi_begin();
        engine.spawn(injector(engine, s, st, rank, t0));
        engine.spawn(dispatcher_dv(ctx, node, s, st));
        std::vector<std::uint64_t> scratch;
        for (;;) {
          const Request* r = co_await st.queue.receive();
          if (r == nullptr) break;
          co_await serve_one_dv(ctx, node, s, st, *r, t0, scratch);
        }
        const auto incoming = co_await dvapi::alltoall_words(ctx, st.sent_to);
        st.expected = 0;
        for (int p = 0; p < nodes; ++p) {
          if (p != rank) st.expected += incoming[static_cast<std::size_t>(p)];
        }
        co_await ctx.send_fifo(rank, encode_word(MsgKind::kTerm, rank, 0));
        while (!st.dispatcher_done) co_await st.done_cond.wait();
        DVX_CHECK_EQ(st.received, st.expected)
            << "serve request conservation violated (dv, rank " << rank << "). ";
        co_await ctx.barrier();
        node.roi_end();
      });
  return finish(s, run.roi_seconds());
}

}  // namespace dvx::serve
