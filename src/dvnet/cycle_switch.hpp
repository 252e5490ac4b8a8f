#pragma once
// Cycle-accurate simulator of the Data Vortex deflection-routed switch.
//
// Implements the routing rule of paper §II: a packet entering a node on
// cylinder c compares one bit of its destination height against the node's
// height; on a match it descends one cylinder (a "normal path", angle +1), on
// a mismatch it takes a "deflection path" within the same cylinder to a node
// whose height flips that bit (angle +1). Contention is resolved by the
// deflection signal: a node never accepts a packet from the outer cylinder in
// a cycle in which it receives one along its own cylinder, so blocked packets
// keep moving (hot-potato) instead of buffering. Statistically this costs
// about two extra hops under load — the property the analytic FabricModel
// encodes and the ablation bench cross-checks.
//
// Hot-path layout (DESIGN.md §10): step() is O(active) — per-cylinder
// worklists of in-flight slots are carried across cycles (no occupancy
// rescans), the occupancy grid is reset cell-by-cell from last cycle's
// worklist (no O(nodes) fill), port queues are head-indexed rings (O(1)
// pop-front), and delivery statistics are folded in at ejection so nothing
// replays a log. All per-cycle storage is persistent and recycled: the
// steady state allocates nothing.

#include <cstdint>
#include <vector>

#include "check/audit.hpp"
#include "dvnet/geometry.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"

namespace dvx::dvnet {

struct CyclePacket {
  int dst_port = 0;
  int src_port = 0;
  std::uint64_t tag = 0;
  // position
  int cylinder = 0;
  int height = 0;
  int angle = 0;
  // destination coordinates, cached at inject (pure cache of
  // geometry.port_height/port_angle so the per-hop path does no div/mod)
  int dst_height = 0;
  int dst_angle = 0;
  // bookkeeping
  std::uint64_t inject_cycle = 0;
  int hops = 0;
  int deflections = 0;
};

struct Delivery {
  int src_port;
  int dst_port;
  std::uint64_t tag;
  std::uint64_t inject_cycle;
  std::uint64_t eject_cycle;
  int hops;
  int deflections;
};

class CycleSwitch : public check::InvariantAuditor {
 public:
  explicit CycleSwitch(Geometry geometry);

  const Geometry& geometry() const noexcept { return geometry_; }

  /// Queues a packet at an input port; it enters the fabric when the port's
  /// cylinder-0 node is free (at most one injection per port per cycle).
  void inject(int src_port, int dst_port, std::uint64_t tag = 0);

  /// Advances the fabric by one switch cycle.
  void step();

  /// Steps until all queued and in-flight packets are delivered.
  /// Returns false if `max_cycles` elapsed first (suspected livelock).
  bool drain(std::uint64_t max_cycles = 1'000'000);

  std::uint64_t cycle() const noexcept { return cycle_; }
  std::size_t in_flight() const noexcept { return in_flight_; }
  /// Packets waiting in the injection queues (running counter, O(1)).
  std::size_t queued() const noexcept { return queued_; }

  /// Opt-in per-delivery log. Off by default — the statistics below stay
  /// exact either way (they are folded in at ejection); the log exists for
  /// tests and tools that inspect individual packets, and grows unbounded
  /// while enabled, so production-scale runs should leave it off.
  void record_deliveries(bool on) noexcept { record_deliveries_ = on; }
  bool deliveries_recorded() const noexcept { return record_deliveries_; }
  const std::vector<Delivery>& deliveries() const noexcept { return deliveries_; }

  /// Packets that entered the fabric / were ejected since construction.
  std::uint64_t injected_total() const noexcept { return injected_; }
  std::uint64_t delivered_total() const noexcept { return delivered_; }

  /// Verifies the fabric's epoch invariants (DESIGN.md §7): packet
  /// conservation (injected == delivered + in-flight, occupancy grid in
  /// sync with the counters and the active worklist, slot slab accounted
  /// for) and, at DVX_CHECK_LEVEL >= 2, per-packet routing legality
  /// (position in range, the c most-significant height bits of a cylinder-c
  /// packet match its destination, hop count consistent with its age). Runs
  /// automatically every kAuditCycles at level >= 2 and at the end of
  /// drain(); cheap enough to call explicitly from tests at any level >= 1.
  void audit_invariants() const;

  /// check::InvariantAuditor: lets tests drive audits from an Engine cadence.
  void audit(std::int64_t now_ps) override;

  /// TEST ONLY: silently removes one in-flight packet from the occupancy
  /// grid (and the active worklist) without adjusting any counter — a
  /// seeded conservation fault that audit_invariants() must catch. Returns
  /// false when nothing is in flight.
  bool corrupt_drop_one_for_test();

  /// Latency distribution in cycles (inject->eject) of packets delivered
  /// since construction (or the last clear_deliveries()). Maintained
  /// incrementally at ejection — O(1), independent of the delivery log.
  sim::RunningStats latency_stats() const { return latency_rs_; }
  /// Hop-count distribution of delivered packets.
  sim::RunningStats hop_stats() const { return hop_rs_; }
  /// Deflection-count distribution of delivered packets.
  sim::RunningStats deflection_stats() const { return defl_rs_; }

  /// Resets the delivery log and the delivery statistics (which have always
  /// been "since the last clear"); injected/delivered totals are unaffected.
  void clear_deliveries();

 private:
  /// Automatic audit cadence in switch cycles (level >= 2 builds only).
  static constexpr std::uint64_t kAuditCycles = 1024;

  /// One in-flight packet on this cycle's worklist: its slot in packets_
  /// plus its node index *within its cylinder* (h * angles + a). Worklists
  /// are sorted by node before processing so contention resolves in the
  /// same ascending-node order as the historical full-grid scan.
  struct WorkItem {
    std::uint32_t node;
    std::uint32_t slot;
  };

  /// Head-indexed ring storage for one injection port: pop-front is O(1);
  /// the dead prefix is compacted away once it dominates the buffer, so the
  /// storage is bounded by the backlog high-water mark and recycled forever.
  struct PortQueue {
    std::vector<CyclePacket> buf;
    std::size_t head = 0;

    bool empty() const noexcept { return head == buf.size(); }
    std::size_t size() const noexcept { return buf.size() - head; }
    void push(const CyclePacket& p) { buf.push_back(p); }
    CyclePacket pop() {
      CyclePacket p = buf[head++];
      if (head == buf.size()) {
        buf.clear();
        head = 0;
      } else if (head >= 64 && head * 2 >= buf.size()) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      return p;
    }
  };

  int node_index(int c, int h, int a) const noexcept {
    return (c * geometry_.heights + h) * geometry_.angles + a;
  }
  int next_angle(int a) const noexcept {
    const int na = a + 1;
    return na == geometry_.angles ? 0 : na;
  }

  void eject(std::uint32_t slot);
  void place(int cylinder, std::uint32_t in_cylinder_node, std::uint32_t slot);

  Geometry geometry_;
  // obs instrumentation, attached from the ambient collector at
  // construction; all null (one dead branch per site) when nothing collects.
  std::vector<obs::Counter*> deflection_counters_;  // [cylinder * angles + angle]
  obs::Histogram* hops_hist_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
  obs::Gauge* occupancy_gauge_ = nullptr;
  obs::Counter* inject_stalls_ = nullptr;
  std::uint64_t cycle_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t queued_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
  bool record_deliveries_ = false;
  // occupancy_[node] = packet index + 1, or 0 when empty. occupancy_next_
  // is all-zero between steps (dirty cells are reset from the worklist).
  std::vector<std::uint32_t> occupancy_;
  std::vector<std::uint32_t> occupancy_next_;
  std::vector<CyclePacket> packets_;       // slab; freed slots reused
  std::vector<std::uint32_t> free_slots_;
  // Per-cylinder active worklists, double-buffered across cycles. Cleared
  // (capacity kept) rather than reallocated.
  std::vector<std::vector<WorkItem>> worklist_;
  std::vector<std::vector<WorkItem>> worklist_next_;
  std::vector<PortQueue> port_queues_;  // per input port
  sim::RunningStats latency_rs_;
  sim::RunningStats hop_rs_;
  sim::RunningStats defl_rs_;
  std::vector<Delivery> deliveries_;
};

}  // namespace dvx::dvnet
