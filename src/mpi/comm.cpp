#include "mpi/comm.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "check/check.hpp"
#include "obs/collector.hpp"

namespace dvx::mpi {

MpiWorld::MpiWorld(sim::Engine& engine, std::unique_ptr<net::Interconnect> fabric,
                   int ranks, MpiParams params, sim::Tracer* tracer)
    : engine_(engine), fabric_(std::move(fabric)), ranks_(ranks), params_(params),
      tracer_(tracer) {
  if (!fabric_) {
    throw std::invalid_argument("MpiWorld: interconnect must not be null");
  }
  if (ranks <= 0 || ranks > fabric_->nodes()) {
    throw std::invalid_argument("MpiWorld: rank count must fit the fabric");
  }
  endpoints_.resize(static_cast<std::size_t>(ranks));
  if (obs::Registry* m = obs::metrics()) {
    obs_msg_bytes_ = m->histogram("mpi.msg.bytes");
    obs_eager_msgs_ = m->counter("mpi.msgs", {{"protocol", "eager"}});
    obs_rendezvous_msgs_ = m->counter("mpi.msgs", {{"protocol", "rendezvous"}});
  }
  engine_.add_window_hook(this, fabric_->lookahead(), [this] { resolve_window(); });
}

MpiWorld::~MpiWorld() { engine_.remove_window_hook(this); }

void MpiWorld::account(const WireOp& op, const net::MsgTiming& t) {
  if (op.acct_bytes >= 0 && obs_msg_bytes_ != nullptr) {
    obs_msg_bytes_->observe(static_cast<std::uint64_t>(op.acct_bytes));
    (op.eager ? obs_eager_msgs_ : obs_rendezvous_msgs_)->inc();
  }
  if (op.traced && tracer_ != nullptr) {
    // The message line carries the ORIGINAL send time: the engine clock at
    // resolution sits at the window floor, not at op.ready.
    tracer_->record_message(op.src, op.dst, op.ready, t.last_arrival, op.bytes,
                            op.tag);
  }
}

void MpiWorld::fabric_send(WireOp op, std::function<void(const net::MsgTiming&)> k) {
  if (op.src == op.dst) {
    // Loopback rides only local state (a byte tally + stateless memcpy
    // timing), so the timing is computed synchronously: the continuation may
    // schedule into the current window, which a window-close resolution
    // could not do. The obs/tracer accounting still goes through the staged
    // ledger so its order stays canonical.
    const net::MsgTiming t = fabric_->send_message(op.src, op.dst, op.bytes, op.ready);
    if (op.acct_bytes >= 0 || op.traced) {
      StagedOp staged;
      staged.op = op;
      staged.pos = staged_.size();
      staged.loopback = true;
      staged.timing = t;
      staged_.push_back(std::move(staged));
    }
    if (k) k(t);
    return;
  }
  StagedOp staged;
  staged.op = std::move(op);
  staged.pos = staged_.size();
  staged.k = std::move(k);
  staged_.push_back(std::move(staged));
}

void MpiWorld::resolve_window() {
  // Window-close resolution: replay every staged wire transfer against the
  // interconnect in canonical (ready, src, ledger position) order, a pure
  // function of the window's simulation content. One ledger appends in
  // event order, so the position keeps each source's transfers in stage
  // order. Continuations only
  // schedule protocol events (at physical times >= the window end) and
  // never re-enter fabric_send.
  std::vector<StagedOp> batch;
  batch.swap(staged_);
  if (batch.empty()) return;
  std::sort(batch.begin(), batch.end(), [](const StagedOp& a, const StagedOp& b) {
    if (a.op.ready != b.op.ready) return a.op.ready < b.op.ready;
    if (a.op.src != b.op.src) return a.op.src < b.op.src;
    return a.pos < b.pos;
  });
  for (StagedOp& s : batch) {
    const net::MsgTiming t =
        s.loopback ? s.timing
                   : fabric_->send_message(s.op.src, s.op.dst, s.op.bytes, s.op.ready);
    account(s.op, t);
    if (s.k) s.k(t);
  }
}

int Comm::size() const noexcept { return world_->size(); }

sim::Engine& Comm::engine() const noexcept { return world_->engine(); }

void MpiWorld::complete(const Request& op, sim::Time at) {
  if (at < engine_.now()) at = engine_.now();
  op->done = true;
  op->done_at = at;
  op->cond.notify_all(at);
}

}  // namespace dvx::mpi
