#include "mpi/comm.hpp"

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
}

net::MsgTiming MpiWorld::fabric_send(const WireOp& op) {
  const sim::Time now = engine_.now();
  const net::MsgTiming t = fabric_->send_message(op.src, op.dst, op.bytes, now);
  if (op.acct_bytes >= 0 && obs_msg_bytes_ != nullptr) {
    obs_msg_bytes_->observe(static_cast<std::uint64_t>(op.acct_bytes));
    (op.eager ? obs_eager_msgs_ : obs_rendezvous_msgs_)->inc();
  }
  if (op.traced && tracer_ != nullptr) {
    tracer_->record_message(op.src, op.dst, now, t.last_arrival, op.bytes, op.tag);
  }
  return t;
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
