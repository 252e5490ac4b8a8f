#pragma once
// MiniMPI — a small MPI implementation over an abstract interconnect.
//
// Provides the semantics the paper's baseline codes rely on: blocking and
// nonblocking point-to-point with (source, tag) matching including
// wildcards, eager and rendezvous protocols with an OpenMPI-like switchover,
// unexpected-message queues, and the collectives used by HPCC/Graph500-style
// benchmarks (barrier, bcast, reduce, allreduce, gather, allgather,
// alltoall(v)) built from point-to-point with standard algorithms.
//
// Payloads are vectors of 64-bit words: applications move real data (so
// results are testable), while all timing flows through the fabric model.
// The runtime is generic over the network: it owns a net::Interconnect and
// never names a concrete fabric, so the same protocol engine runs over the
// InfiniBand fat-tree, the 3D torus, or any future backend.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/interconnect.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace dvx::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct MpiParams {
  /// Eager/rendezvous switchover (OpenMPI's default is ~12 KB for openib).
  std::int64_t eager_threshold = 12 * 1024;
  /// Software cost of entering an MPI call.
  sim::Duration sw_overhead = sim::ns(500);
  /// Envelope bytes carried by every message / control packet.
  std::int64_t envelope_bytes = 64;
};

struct Message {
  int src = kAnySource;
  int tag = kAnyTag;
  std::vector<std::uint64_t> data;
};

class MpiWorld;

/// Completion state shared between the caller and the protocol engine.
struct Op {
  explicit Op(sim::Engine& engine) : cond(engine) {}
  sim::Condition cond;
  bool done = false;
  sim::Time done_at = 0;
  Message msg;  // filled for receives
};
using Request = std::shared_ptr<Op>;

/// One rank's handle on the world (cheap to copy around a node program).
class Comm {
 public:
  Comm(MpiWorld& world, int rank) : world_(&world), rank_(rank) {}

  int rank() const noexcept { return rank_; }
  int size() const noexcept;
  sim::Engine& engine() const noexcept;

  // --- point to point -------------------------------------------------------
  sim::Coro<void> send(int dst, int tag, std::vector<std::uint64_t> data);
  sim::Coro<Message> recv(int src = kAnySource, int tag = kAnyTag);
  Request isend(int dst, int tag, std::vector<std::uint64_t> data);
  Request irecv(int src = kAnySource, int tag = kAnyTag);
  sim::Coro<void> wait(const Request& req);
  sim::Coro<void> wait_all(std::vector<Request> reqs);
  /// Combined exchange (deadlock-free pairwise swap).
  sim::Coro<Message> sendrecv(int dst, int send_tag, std::vector<std::uint64_t> data,
                              int src, int recv_tag);

  // --- collectives ----------------------------------------------------------
  sim::Coro<void> barrier();
  sim::Coro<std::vector<std::uint64_t>> bcast(std::vector<std::uint64_t> data, int root);
  using ReduceFn = std::function<std::uint64_t(std::uint64_t, std::uint64_t)>;
  sim::Coro<std::vector<std::uint64_t>> allreduce(std::vector<std::uint64_t> data,
                                                  const ReduceFn& op);
  sim::Coro<std::uint64_t> allreduce_sum(std::uint64_t v);
  sim::Coro<std::uint64_t> allreduce_max(std::uint64_t v);
  sim::Coro<double> allreduce_sum_double(double v);
  sim::Coro<double> allreduce_max_double(double v);
  /// Gathers each rank's vector at root (others get an empty result).
  sim::Coro<std::vector<std::vector<std::uint64_t>>> gather(
      std::vector<std::uint64_t> data, int root);
  sim::Coro<std::vector<std::vector<std::uint64_t>>> allgather(
      std::vector<std::uint64_t> data);
  /// Personalized all-to-all: send[i] goes to rank i; returns out[i] from i.
  sim::Coro<std::vector<std::vector<std::uint64_t>>> alltoall(
      std::vector<std::vector<std::uint64_t>> send);

 private:
  MpiWorld* world_;
  int rank_;
};

/// Owns the per-rank endpoints, the interconnect the bytes travel over, and
/// runs the eager/rendezvous protocol.
///
/// Windowed operation (DESIGN.md §15): the world windows its engine at the
/// interconnect's lookahead() when it is built, and a fabric without a
/// positive one is refused (std::invalid_argument). The interconnect is
/// reached only through fabric_send(), which stages wire transfers into one
/// ledger resolved at the engine's window close in canonical (ready, src,
/// ledger position) order.
class MpiWorld {
 public:
  MpiWorld(sim::Engine& engine, std::unique_ptr<net::Interconnect> fabric,
           int ranks, MpiParams params = {}, sim::Tracer* tracer = nullptr);
  ~MpiWorld();

  int size() const noexcept { return ranks_; }
  sim::Engine& engine() noexcept { return engine_; }
  net::Interconnect& fabric() noexcept { return *fabric_; }
  const MpiParams& params() const noexcept { return params_; }
  sim::Tracer* tracer() noexcept { return tracer_; }
  Comm comm(int rank) { return Comm(*this, rank); }

  // Protocol entry points (used by Comm).
  Request start_send(int src, int dst, int tag, std::vector<std::uint64_t> data);
  Request start_recv(int rank, int src, int tag);

 private:
  struct PendingSend {  // rendezvous in flight, waiting for CTS
    int src, dst, tag;
    std::vector<std::uint64_t> data;
    Request op;
  };
  struct Rts {  // unexpected rendezvous announcement
    int src, tag;
    sim::Time arrival;
    std::shared_ptr<PendingSend> sender;
  };
  struct PostedRecv {
    int src, tag;
    Request op;
  };
  struct Endpoint {
    std::deque<PostedRecv> posted;
    std::deque<Message> unexpected;       // eager payloads already here
    std::deque<Rts> unexpected_rts;
  };

  static bool matches(int want_src, int want_tag, int src, int tag) {
    return (want_src == kAnySource || want_src == src) &&
           (want_tag == kAnyTag || want_tag == tag);
  }

  /// One wire transfer routed through fabric_send. `acct_bytes >= 0` carries
  /// the obs per-message accounting (full message size + protocol counter);
  /// `traced` records the tracer message line when the timing is known.
  struct WireOp {
    int src = 0;
    int dst = 0;
    std::int64_t bytes = 0;  ///< on-the-wire bytes of this transfer
    sim::Time ready = 0;
    std::int64_t acct_bytes = -1;
    bool eager = false;
    bool traced = false;
    int tag = 0;
  };
  /// A wire transfer parked in the ledger until window close.
  struct StagedOp {
    WireOp op;
    std::size_t pos = 0;  ///< ledger position at append: stage order
    bool loopback = false;  ///< timing precomputed; resolution only accounts
    net::MsgTiming timing{};  ///< valid when loopback
    std::function<void(const net::MsgTiming&)> k;  ///< nullable continuation
  };

  /// Single gateway to the interconnect. Loopback (src == dst; purely local
  /// timing) computes synchronously, while remote transfers stage
  /// {op, k} and the window-close resolution replays them in
  /// (ready, src, ledger position) order.
  void fabric_send(WireOp op, std::function<void(const net::MsgTiming&)> k);
  void account(const WireOp& op, const net::MsgTiming& t);
  void resolve_window();

  void deliver_eager(int dst, Message msg);
  void handle_rts(int dst, Rts rts);
  void grant_rts(int dst, const Rts& rts, const Request& recv_op);
  void complete(const Request& op, sim::Time at);

  sim::Engine& engine_;
  std::unique_ptr<net::Interconnect> fabric_;
  int ranks_;
  MpiParams params_;
  sim::Tracer* tracer_;
  // obs instrumentation (null when nothing collects): on-the-wire message
  // size distribution and per-protocol message counts.
  obs::Histogram* obs_msg_bytes_ = nullptr;
  obs::Counter* obs_eager_msgs_ = nullptr;
  obs::Counter* obs_rendezvous_msgs_ = nullptr;
  std::vector<Endpoint> endpoints_;

  // Window staging.
  std::vector<StagedOp> staged_;
};

}  // namespace dvx::mpi
