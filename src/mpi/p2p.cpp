// MiniMPI point-to-point: eager + rendezvous protocol over the IB model.
//
// Eager (size <= threshold): the payload goes on the wire immediately and
// the send completes locally; the receiver matches it on arrival or queues
// it as unexpected. Rendezvous: a small RTS travels first; the receiver
// answers CTS when a matching recv is posted; the payload moves after the
// CTS reaches the sender. All deferred protocol steps run as DES events at
// their virtual arrival times, so matching decisions happen in causal order.

#include "mpi/comm.hpp"

namespace dvx::mpi {

Request MpiWorld::start_send(int src, int dst, int tag, std::vector<std::uint64_t> data) {
  auto op = std::make_shared<Op>(engine_);
  const auto bytes =
      static_cast<std::int64_t>(data.size()) * 8 + params_.envelope_bytes;
  const sim::Time now = engine_.now();

  if (bytes <= params_.eager_threshold) {
    WireOp wire{src, dst, bytes, now, /*acct_bytes=*/bytes, /*eager=*/true,
                /*traced=*/tracer_ != nullptr, tag};
    Message msg{src, tag, std::move(data)};
    fabric_send(std::move(wire),
                [this, dst, m = std::move(msg)](const net::MsgTiming& t) mutable {
                  engine_.schedule(
                      t.last_arrival,
                      [this, dst, m2 = std::move(m)]() mutable {
                        deliver_eager(dst, std::move(m2));
                      });
                });
    // Eager sends complete once the payload is handed to the NIC; model that
    // as the source-side injection cost (first chunk formation).
    complete(op, now + params_.sw_overhead);
    return op;
  }

  // Rendezvous: RTS control packet now; data moves when the CTS comes back.
  auto pending = std::make_shared<PendingSend>();
  pending->src = src;
  pending->dst = dst;
  pending->tag = tag;
  pending->data = std::move(data);
  pending->op = op;
  WireOp rts_wire{src, dst, params_.envelope_bytes, now, /*acct_bytes=*/bytes,
                  /*eager=*/false, /*traced=*/false, tag};
  fabric_send(std::move(rts_wire),
              [this, dst, src, tag, pending](const net::MsgTiming& rts_t) {
                engine_.schedule(
                    rts_t.last_arrival,
                    [this, dst, src, tag, pending, rts_t] {
                      handle_rts(dst, Rts{src, tag, rts_t.last_arrival, pending});
                    });
              });
  return op;
}

Request MpiWorld::start_recv(int rank, int src, int tag) {
  auto op = std::make_shared<Op>(engine_);
  auto& ep = endpoints_[static_cast<std::size_t>(rank)];

  // Unexpected eager message already here?
  for (auto it = ep.unexpected.begin(); it != ep.unexpected.end(); ++it) {
    if (matches(src, tag, it->src, it->tag)) {
      op->msg = std::move(*it);
      ep.unexpected.erase(it);
      complete(op, engine_.now());
      return op;
    }
  }
  // Unexpected rendezvous announcement?
  for (auto it = ep.unexpected_rts.begin(); it != ep.unexpected_rts.end(); ++it) {
    if (matches(src, tag, it->src, it->tag)) {
      Rts rts = *it;
      ep.unexpected_rts.erase(it);
      grant_rts(rank, rts, op);
      return op;
    }
  }
  ep.posted.push_back(PostedRecv{src, tag, op});
  return op;
}

void MpiWorld::deliver_eager(int dst, Message msg) {
  // Runs as a DES event at the arrival time.
  auto& ep = endpoints_[static_cast<std::size_t>(dst)];
  for (auto it = ep.posted.begin(); it != ep.posted.end(); ++it) {
    if (matches(it->src, it->tag, msg.src, msg.tag)) {
      Request op = it->op;
      ep.posted.erase(it);
      op->msg = std::move(msg);
      complete(op, engine_.now());
      return;
    }
  }
  ep.unexpected.push_back(std::move(msg));
}

void MpiWorld::handle_rts(int dst, Rts rts) {
  auto& ep = endpoints_[static_cast<std::size_t>(dst)];
  for (auto it = ep.posted.begin(); it != ep.posted.end(); ++it) {
    if (matches(it->src, it->tag, rts.src, rts.tag)) {
      Request op = it->op;
      ep.posted.erase(it);
      grant_rts(dst, rts, op);
      return;
    }
  }
  ep.unexpected_rts.push_back(std::move(rts));
}

void MpiWorld::grant_rts(int dst, const Rts& rts, const Request& recv_op) {
  // CTS back to the sender, then the bulk payload to the receiver. Both legs
  // run through fabric_send; the payload leaves once the CTS has arrived.
  auto pending = rts.sender;
  WireOp cts{dst, rts.src, params_.envelope_bytes, engine_.now()};
  fabric_send(std::move(cts), [this, pending, recv_op](const net::MsgTiming& cts_t) {
    engine_.schedule(
        cts_t.last_arrival,
        [this, pending, recv_op] {
          const auto bytes = static_cast<std::int64_t>(pending->data.size()) * 8 +
                             params_.envelope_bytes;
          WireOp payload{pending->src, pending->dst,    bytes, engine_.now(),
                         /*acct_bytes=*/-1, /*eager=*/false,
                         /*traced=*/tracer_ != nullptr, pending->tag};
          fabric_send(std::move(payload),
                      [this, pending, recv_op](const net::MsgTiming& t) {
                        // The sender unblocks once the payload drained its NIC.
                        complete(pending->op, t.last_arrival);
                        Message msg{pending->src, pending->tag,
                                    std::move(pending->data)};
                        engine_.schedule(
                            t.last_arrival,
                            [this, recv_op, m = std::move(msg)]() mutable {
                              recv_op->msg = std::move(m);
                              complete(recv_op, engine_.now());
                            });
                      });
        });
  });
}

// --- Comm wrappers -----------------------------------------------------------

Request Comm::isend(int dst, int tag, std::vector<std::uint64_t> data) {
  return world_->start_send(rank_, dst, tag, std::move(data));
}

Request Comm::irecv(int src, int tag) { return world_->start_recv(rank_, src, tag); }

sim::Coro<void> Comm::wait(const Request& req) {
  const sim::Time t0 = engine().now();
  while (!req->done) co_await req->cond.wait();
  if (auto* tr = world_->tracer(); tr != nullptr) {
    tr->record_state(rank_, sim::NodeState::kWait, t0, engine().now());
  }
}

sim::Coro<void> Comm::wait_all(std::vector<Request> reqs) {
  for (auto& r : reqs) co_await wait(r);
}

sim::Coro<void> Comm::send(int dst, int tag, std::vector<std::uint64_t> data) {
  co_await engine().delay(world_->params().sw_overhead);
  auto req = isend(dst, tag, std::move(data));
  const sim::Time t0 = engine().now();
  while (!req->done) co_await req->cond.wait();
  if (auto* tr = world_->tracer(); tr != nullptr) {
    tr->record_state(rank_, sim::NodeState::kSend, t0, engine().now());
  }
}

sim::Coro<Message> Comm::recv(int src, int tag) {
  co_await engine().delay(world_->params().sw_overhead);
  auto req = irecv(src, tag);
  const sim::Time t0 = engine().now();
  while (!req->done) co_await req->cond.wait();
  if (auto* tr = world_->tracer(); tr != nullptr) {
    tr->record_state(rank_, sim::NodeState::kRecv, t0, engine().now());
  }
  co_return std::move(req->msg);
}

sim::Coro<Message> Comm::sendrecv(int dst, int send_tag, std::vector<std::uint64_t> data,
                                  int src, int recv_tag) {
  co_await engine().delay(world_->params().sw_overhead);
  auto rreq = irecv(src, recv_tag);
  auto sreq = isend(dst, send_tag, std::move(data));
  co_await wait(sreq);
  co_await wait(rreq);
  co_return std::move(rreq->msg);
}

}  // namespace dvx::mpi
