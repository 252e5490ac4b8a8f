#include "dvnet/cycle_switch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "obs/collector.hpp"

namespace dvx::dvnet {

CycleSwitch::CycleSwitch(Geometry geometry) : geometry_(geometry) {
  geometry_.validate();
  occupancy_.assign(static_cast<std::size_t>(geometry_.nodes()), 0);
  occupancy_next_.assign(occupancy_.size(), 0);
  worklist_.resize(static_cast<std::size_t>(geometry_.cylinders()));
  worklist_next_.resize(static_cast<std::size_t>(geometry_.cylinders()));
  port_queues_.resize(static_cast<std::size_t>(geometry_.ports()));
  if (obs::Registry* m = obs::metrics()) {
    // Deflections happen on the outer cylinders only (the innermost is
    // fully height-routed), but index by (cylinder, angle) over the whole
    // grid so the step() hot path needs no bounds arithmetic.
    deflection_counters_.assign(
        static_cast<std::size_t>(geometry_.cylinders() * geometry_.angles), nullptr);
    for (int c = 0; c + 1 < geometry_.cylinders(); ++c) {
      for (int a = 0; a < geometry_.angles; ++a) {
        deflection_counters_[static_cast<std::size_t>(c * geometry_.angles + a)] =
            m->counter("dv.switch.deflections",
                       {{"cylinder", std::to_string(c)}, {"angle", std::to_string(a)}});
      }
    }
    hops_hist_ = m->histogram("dv.switch.hops");
    latency_hist_ = m->histogram("dv.switch.latency_cycles");
    occupancy_gauge_ = m->gauge("dv.switch.occupancy");
    inject_stalls_ = m->counter("dv.switch.inject_stalls");
  }
}

void CycleSwitch::inject(int src_port, int dst_port, std::uint64_t tag) {
  if (src_port < 0 || src_port >= geometry_.ports() || dst_port < 0 ||
      dst_port >= geometry_.ports()) {
    throw std::out_of_range("CycleSwitch::inject: port out of range");
  }
  CyclePacket p;
  p.src_port = src_port;
  p.dst_port = dst_port;
  p.tag = tag;
  p.dst_height = geometry_.port_height(dst_port);
  p.dst_angle = geometry_.port_angle(dst_port);
  port_queues_[static_cast<std::size_t>(src_port)].push(p);
  ++queued_;
}

void CycleSwitch::eject(std::uint32_t slot) {
  CyclePacket& p = packets_[slot];
  // Ejection legality: one hop per in-fabric cycle, deflections are a
  // subset of hops (the (C,H,A) traversal bound per audit epoch).
  DVX_CHECK_EQ(cycle_ - p.inject_cycle, static_cast<std::uint64_t>(p.hops) + 1)
      << "hop count out of sync with in-fabric age. ";
  DVX_CHECK(p.deflections <= p.hops)
      << "deflections=" << p.deflections << " hops=" << p.hops;
  if (record_deliveries_) {
    deliveries_.push_back(Delivery{p.src_port, p.dst_port, p.tag, p.inject_cycle,
                                   cycle_, p.hops, p.deflections});
  }
  latency_rs_.add(static_cast<double>(cycle_ - p.inject_cycle));
  hop_rs_.add(static_cast<double>(p.hops));
  defl_rs_.add(static_cast<double>(p.deflections));
  if (hops_hist_ != nullptr) {
    hops_hist_->observe(static_cast<std::uint64_t>(p.hops));
    latency_hist_->observe(cycle_ - p.inject_cycle);
  }
  free_slots_.push_back(slot);
  --in_flight_;
  ++delivered_;
}

void CycleSwitch::place(int cylinder, std::uint32_t in_cylinder_node,
                        std::uint32_t slot) {
  const std::size_t cell = static_cast<std::size_t>(cylinder) *
                               static_cast<std::size_t>(geometry_.ports()) +
                           in_cylinder_node;
  occupancy_next_[cell] = slot + 1;
  worklist_next_[static_cast<std::size_t>(cylinder)].push_back(
      WorkItem{in_cylinder_node, slot});
}

void CycleSwitch::step() {
  const int kC = geometry_.cylinders();
  const int kBits = geometry_.height_bits();
  const int kA = geometry_.angles;
  const std::size_t kHA = static_cast<std::size_t>(geometry_.ports());

  // occupancy_next_ is all-zero on entry (dirty cells were reset from last
  // cycle's worklist). Process cylinders innermost -> outermost so that a
  // cylinder's same-cylinder moves (which carry the deflection signal) are
  // known before any outer packet tries to descend into it. Each worklist
  // is sorted by node index so contention resolves in the same
  // ascending-node order as the historical full-grid occupancy scan.
  for (int c = kC - 1; c >= 0; --c) {
    auto& wl = worklist_[static_cast<std::size_t>(c)];
    std::sort(wl.begin(), wl.end(),
              [](const WorkItem& a, const WorkItem& b) { return a.node < b.node; });
    if (c == kC - 1) {
      // Innermost cylinder: fully height-routed packets circulate to their
      // destination angle and eject there.
      for (const WorkItem item : wl) {
        CyclePacket& p = packets_[item.slot];
        DVX_CHECK(p.height == p.dst_height)
            << "innermost packets are height-routed: "
            << "height=" << p.height << " dst=" << p.dst_height;
        if (p.height == p.dst_height && p.angle == p.dst_angle) {
          eject(item.slot);
          continue;
        }
        p.angle = next_angle(p.angle);
        ++p.hops;
        place(c, static_cast<std::uint32_t>(p.height * kA + p.angle), item.slot);
      }
    } else {
      // Outer cylinders: descend on a height-bit match when the inner node
      // is free; otherwise traverse the deflection path within the cylinder.
      const int bit_index = kBits - 1 - c;
      const int mask = 1 << bit_index;
      for (const WorkItem item : wl) {
        CyclePacket& p = packets_[item.slot];
        const bool bit_match =
            ((p.dst_height >> bit_index) & 1) == ((p.height >> bit_index) & 1);
        const int na = next_angle(p.angle);
        if (bit_match) {
          const std::uint32_t inner_node =
              static_cast<std::uint32_t>(p.height * kA + na);
          const std::size_t target =
              static_cast<std::size_t>(c + 1) * kHA + inner_node;
          if (occupancy_next_[target] == 0) {
            p.cylinder = c + 1;
            p.angle = na;
            ++p.hops;
            occupancy_next_[target] = item.slot + 1;
            worklist_next_[static_cast<std::size_t>(c + 1)].push_back(
                WorkItem{inner_node, item.slot});
            continue;
          }
          ++p.deflections;  // blocked by the deflection signal: hot-potato on
          if (!deflection_counters_.empty()) {
            deflection_counters_[static_cast<std::size_t>(c * kA + p.angle)]->inc();
          }
        }
        p.height ^= mask;
        p.angle = na;
        ++p.hops;
        place(c, static_cast<std::uint32_t>(p.height * kA + p.angle), item.slot);
      }
    }
  }

  // Injection: one packet per input port per cycle, only into a free node.
  // The running queued_ counter gates the whole loop when every queue is
  // empty (the common case in long drain tails).
  if (queued_ != 0) {
    for (int port = 0; port < geometry_.ports(); ++port) {
      PortQueue& q = port_queues_[static_cast<std::size_t>(port)];
      if (q.empty()) continue;
      const int h = geometry_.port_height(port);
      const int a = geometry_.port_angle(port);
      const std::uint32_t node = static_cast<std::uint32_t>(h * kA + a);
      if (occupancy_next_[node] != 0) {  // backpressured this cycle
        if (inject_stalls_ != nullptr) inject_stalls_->inc();
        continue;
      }
      CyclePacket p = q.pop();
      --queued_;
      p.cylinder = 0;
      p.height = h;
      p.angle = a;
      p.inject_cycle = cycle_;
      std::uint32_t slot;
      if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
        packets_[slot] = p;
      } else {
        slot = static_cast<std::uint32_t>(packets_.size());
        packets_.push_back(p);
      }
      occupancy_next_[node] = slot + 1;
      worklist_next_[0].push_back(WorkItem{node, slot});
      ++in_flight_;
      ++injected_;
    }
  }

  occupancy_.swap(occupancy_next_);
  // Dirty-cell reset: the only nonzero cells of the old grid (now
  // occupancy_next_) are exactly last cycle's worklist positions — zero
  // those instead of std::fill over all nodes.
  for (int c = 0; c < kC; ++c) {
    auto& wl = worklist_[static_cast<std::size_t>(c)];
    const std::size_t base = static_cast<std::size_t>(c) * kHA;
    for (const WorkItem item : wl) occupancy_next_[base + item.node] = 0;
    wl.clear();
  }
  worklist_.swap(worklist_next_);
  ++cycle_;
  if (occupancy_gauge_ != nullptr) {
    occupancy_gauge_->sample(static_cast<double>(in_flight_));
  }
#if DVX_CHECK_LEVEL >= 2
  if (cycle_ % kAuditCycles == 0) audit_invariants();
#endif
}

bool CycleSwitch::drain(std::uint64_t max_cycles) {
  const std::uint64_t limit = cycle_ + max_cycles;
  while (in_flight_ > 0 || queued_ > 0) {
    if (cycle_ >= limit) return false;
    step();
  }
#if DVX_CHECK_LEVEL >= 1
  audit_invariants();
  DVX_CHECK_EQ(injected_, delivered_) << "drained fabric lost packets. ";
#endif
  return true;
}

void CycleSwitch::clear_deliveries() {
  deliveries_.clear();
  latency_rs_ = sim::RunningStats{};
  hop_rs_ = sim::RunningStats{};
  defl_rs_ = sim::RunningStats{};
}

void CycleSwitch::audit_invariants() const {
  // Packet conservation: every packet ever injected is delivered or still
  // occupies exactly one fabric node, the active worklist mirrors the
  // grid, and the slot slab is fully accounted.
  std::size_t occupied = 0;
  for (std::uint32_t cell : occupancy_) {
    if (cell != 0) ++occupied;
  }
  DVX_CHECK_EQ(occupied, in_flight_) << "occupancy grid out of sync. ";
  std::size_t active = 0;
  for (const auto& wl : worklist_) active += wl.size();
  DVX_CHECK_EQ(active, in_flight_) << "active worklist out of sync. ";
  DVX_CHECK_EQ(injected_, delivered_ + in_flight_)
      << "packet conservation violated at cycle " << cycle_ << ". ";
  DVX_CHECK_EQ(free_slots_.size() + in_flight_, packets_.size())
      << "slot slab leak. ";

  // Per-packet routing legality (expensive: O(nodes); level-2 audits only).
  const int kC = geometry_.cylinders();
  const int kBits = geometry_.height_bits();
  for (std::size_t node = 0; node < occupancy_.size(); ++node) {
    const std::uint32_t slot1 = occupancy_[node];
    if (slot1 == 0) continue;
    DVX_CHECK_SOON(slot1 - 1 < packets_.size()) << "dangling slot reference";
    const CyclePacket& p = packets_[slot1 - 1];
    DVX_CHECK_SOON(p.cylinder >= 0 && p.cylinder < kC &&      //
                   p.height >= 0 && p.height < geometry_.heights &&
                   p.angle >= 0 && p.angle < geometry_.angles)
        << "packet position out of range: c=" << p.cylinder << " h=" << p.height
        << " a=" << p.angle;
    DVX_CHECK_SOON(static_cast<std::size_t>(
                       node_index(p.cylinder, p.height, p.angle)) == node)
        << "packet position disagrees with its occupancy cell";
    // The cached destination coordinates must stay a pure function of the
    // destination port (the hot path trusts them instead of recomputing).
    DVX_CHECK_SOON(p.dst_height == geometry_.port_height(p.dst_port) &&
                   p.dst_angle == geometry_.port_angle(p.dst_port))
        << "cached destination coordinates diverged from dst_port";
    // Deflection legality: a cylinder-c packet has its c most-significant
    // height bits routed, and a deflection never undoes a routed bit.
    DVX_CHECK_SOON((p.height >> (kBits - p.cylinder)) ==
                   (p.dst_height >> (kBits - p.cylinder)))
        << "routed height-bit prefix lost: c=" << p.cylinder
        << " h=" << p.height << " dst_h=" << p.dst_height;
    DVX_CHECK_SOON(p.deflections <= p.hops);
    // One hop per in-fabric cycle: age bounds the traversal exactly.
    DVX_CHECK_SOON_EQ(static_cast<std::uint64_t>(p.hops),
                      cycle_ - p.inject_cycle - 1)
        << "in-flight hop count out of sync with age. ";
  }
}

void CycleSwitch::audit(std::int64_t now_ps) {
  (void)now_ps;  // the fabric keeps its own cycle clock
  audit_invariants();
}

bool CycleSwitch::corrupt_drop_one_for_test() {
  const std::size_t kHA = static_cast<std::size_t>(geometry_.ports());
  for (std::size_t cell = 0; cell < occupancy_.size(); ++cell) {
    const std::uint32_t slot1 = occupancy_[cell];
    if (slot1 == 0) continue;
    // The packet vanishes from both the grid and the worklist; counters now
    // disagree with the grid, which the audit must catch.
    occupancy_[cell] = 0;
    auto& wl = worklist_[cell / kHA];
    wl.erase(std::remove_if(
                 wl.begin(), wl.end(),
                 [&](const WorkItem& w) { return w.slot == slot1 - 1; }),
             wl.end());
    return true;
  }
  return false;
}

}  // namespace dvx::dvnet
