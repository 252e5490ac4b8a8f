#pragma once
// Execution tracer modeled on what the paper extracts with Extrae (Fig. 5):
// per-node state intervals (compute vs communication) and point-to-point
// message lines. Benches render the trace as CSV plus summary statistics,
// including a destination-regularity metric quantifying the paper's
// observation that GUPS traffic has "no exploitable regularity for
// aggregating messages directed to the same destination".

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace dvx::sim {

enum class NodeState : std::uint8_t {
  kCompute,
  kSend,
  kRecv,
  kWait,     // blocked in a wait/poll (MPI_Wait, group-counter wait, FIFO poll)
  kBarrier,
  kNumStates,  // sentinel — keep last; sizes every per-state array
};

/// Number of real states; per-state arrays (summaries, glyph tables) size
/// themselves from this so adding a state cannot silently truncate them.
inline constexpr std::size_t kNodeStateCount =
    static_cast<std::size_t>(NodeState::kNumStates);

const char* to_string(NodeState s);

struct StateInterval {
  int node;
  NodeState state;
  Time begin;
  Time end;
};

struct MessageRecord {
  int src;
  int dst;
  Time send_time;
  Time recv_time;
  std::int64_t bytes;
  int tag;
};

struct StateSummary {
  Duration per_state[kNodeStateCount] = {};
  Duration total() const;
  double fraction(NodeState s) const;
};

/// Snapshot of a tracer's append positions (per-node state counts plus the
/// message count). obs::absorb_trace copies everything recorded after a
/// mark, so one collector point can run the cluster several times and keep
/// only the current run's records.
struct TraceMark {
  std::vector<std::size_t> states_per_node;
  std::size_t messages = 0;
};

/// The flat states() view is rebuilt lazily in canonical node-major order
/// (node id, then per-node record order), a pure function of the
/// simulation content.
class Tracer {
 public:
  /// A disabled tracer drops records with near-zero cost.
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool e) noexcept { enabled_ = e; }

  void record_state(int node, NodeState s, Time begin, Time end);
  void record_message(int src, int dst, Time send_time, Time recv_time,
                      std::int64_t bytes, int tag);

  /// Flat node-major view of every state interval (lazily rebuilt).
  const std::vector<StateInterval>& states() const;
  const std::vector<MessageRecord>& messages() const noexcept { return messages_; }
  const std::vector<std::vector<StateInterval>>& states_by_node() const noexcept {
    return states_by_node_;
  }

  /// Current append positions, for later suffix extraction.
  TraceMark mark() const;

  /// Per-node time-in-state totals.
  std::map<int, StateSummary> state_summary() const;

  /// Mean over sources of (largest per-destination share within consecutive
  /// windows of `window` sends). 1.0 = perfectly aggregatable by destination;
  /// ~1/(nodes-1) = uniformly scattered (GUPS-like).
  double destination_regularity(std::size_t window = 64) const;

  /// Writes "state,node,state_name,begin_ps,end_ps" and
  /// "msg,src,dst,send_ps,recv_ps,bytes,tag" rows.
  void write_csv(const std::string& path) const;

  /// ASCII timeline (one row per node, `columns` buckets wide), Fig.5-style.
  std::string ascii_timeline(int columns = 100) const;

  void clear();

 private:
  bool enabled_;
  std::vector<std::vector<StateInterval>> states_by_node_;
  std::vector<MessageRecord> messages_;
  // Lazy flat cache for states().
  mutable std::vector<StateInterval> flat_states_;
  mutable bool flat_dirty_ = false;
};

}  // namespace dvx::sim
