#include "sim/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dvx::sim {

const char* to_string(NodeState s) {
  switch (s) {
    case NodeState::kCompute: return "compute";
    case NodeState::kSend: return "send";
    case NodeState::kRecv: return "recv";
    case NodeState::kWait: return "wait";
    case NodeState::kBarrier: return "barrier";
    case NodeState::kNumStates: break;  // sentinel, never recorded
  }
  return "?";
}

Duration StateSummary::total() const {
  Duration t = 0;
  for (Duration d : per_state) t += d;
  return t;
}

double StateSummary::fraction(NodeState s) const {
  const Duration t = total();
  if (t == 0) return 0.0;
  return static_cast<double>(per_state[static_cast<int>(s)]) / static_cast<double>(t);
}

void Tracer::record_state(int node, NodeState s, Time begin, Time end) {
  if (!enabled_ || end <= begin) return;
  const auto idx = static_cast<std::size_t>(node < 0 ? 0 : node);
  if (idx >= states_by_node_.size()) states_by_node_.resize(idx + 1);
  states_by_node_[idx].push_back(StateInterval{node, s, begin, end});
  flat_dirty_ = true;
}

void Tracer::record_message(int src, int dst, Time send_time, Time recv_time,
                            std::int64_t bytes, int tag) {
  if (!enabled_) return;
  messages_.push_back(MessageRecord{src, dst, send_time, recv_time, bytes, tag});
}

const std::vector<StateInterval>& Tracer::states() const {
  if (flat_dirty_) {
    flat_dirty_ = false;
    flat_states_.clear();
    std::size_t total = 0;
    for (const auto& bucket : states_by_node_) total += bucket.size();
    flat_states_.reserve(total);
    for (const auto& bucket : states_by_node_) {
      flat_states_.insert(flat_states_.end(), bucket.begin(), bucket.end());
    }
  }
  return flat_states_;
}

TraceMark Tracer::mark() const {
  TraceMark m;
  m.states_per_node.reserve(states_by_node_.size());
  for (const auto& bucket : states_by_node_) {
    m.states_per_node.push_back(bucket.size());
  }
  m.messages = messages_.size();
  return m;
}

std::map<int, StateSummary> Tracer::state_summary() const {
  std::map<int, StateSummary> out;
  for (const auto& iv : states()) {
    out[iv.node].per_state[static_cast<int>(iv.state)] += iv.end - iv.begin;
  }
  return out;
}

double Tracer::destination_regularity(std::size_t window) const {
  if (window == 0 || messages_.empty()) return 0.0;
  // Group sends per source in emission order (messages_ is already in
  // nondecreasing send-time order because the DES runs in time order).
  // Ordered maps: the accumulation below sums doubles, and unordered
  // iteration order would make the report value platform-dependent.
  std::map<int, std::vector<int>> per_src;
  for (const auto& m : messages_) per_src[m.src].push_back(m.dst);

  double acc = 0.0;
  std::size_t windows = 0;
  for (const auto& [src, dsts] : per_src) {
    for (std::size_t base = 0; base + window <= dsts.size(); base += window) {
      std::map<int, std::size_t> counts;
      std::size_t best = 0;
      for (std::size_t i = 0; i < window; ++i) {
        best = std::max(best, ++counts[dsts[base + i]]);
      }
      acc += static_cast<double>(best) / static_cast<double>(window);
      ++windows;
    }
  }
  return windows ? acc / static_cast<double>(windows) : 0.0;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("Tracer: cannot open " + path);
  f << "kind,a,b,t0_ps,t1_ps,bytes,tag\n";
  for (const auto& iv : states()) {
    f << "state," << iv.node << ',' << to_string(iv.state) << ',' << iv.begin << ','
      << iv.end << ",,\n";
  }
  for (const auto& m : messages_) {
    f << "msg," << m.src << ',' << m.dst << ',' << m.send_time << ',' << m.recv_time << ','
      << m.bytes << ',' << m.tag << "\n";
  }
}

std::string Tracer::ascii_timeline(int columns) const {
  const auto& all = states();
  if (all.empty()) return "(empty trace)\n";
  Time t0 = all.front().begin, t1 = all.front().end;
  int max_node = 0;
  for (const auto& iv : all) {
    t0 = std::min(t0, iv.begin);
    t1 = std::max(t1, iv.end);
    max_node = std::max(max_node, iv.node);
  }
  if (t1 <= t0) t1 = t0 + 1;
  // One char per bucket: the state covering the majority of the bucket.
  // compute='#', send='>', recv='<', wait='.', barrier='|'
  static constexpr char glyph[] = {'#', '>', '<', '.', '|'};
  static_assert(sizeof(glyph) == kNodeStateCount,
                "glyph table must cover every NodeState");
  std::vector<std::vector<Duration>> cover(
      static_cast<std::size_t>(max_node + 1),
      std::vector<Duration>(static_cast<std::size_t>(columns) * kNodeStateCount, 0));
  const double scale = static_cast<double>(columns) / static_cast<double>(t1 - t0);
  for (const auto& iv : all) {
    int c0 = static_cast<int>(static_cast<double>(iv.begin - t0) * scale);
    int c1 = static_cast<int>(static_cast<double>(iv.end - t0) * scale);
    c0 = std::clamp(c0, 0, columns - 1);
    c1 = std::clamp(c1, c0, columns - 1);
    for (int c = c0; c <= c1; ++c) {
      cover[static_cast<std::size_t>(iv.node)]
           [static_cast<std::size_t>(c) * kNodeStateCount +
            static_cast<std::size_t>(iv.state)] += iv.end - iv.begin;
    }
  }
  std::ostringstream os;
  os << "legend: #=compute >=send <=recv .=wait |=barrier\n";
  for (int n = 0; n <= max_node; ++n) {
    os << "node " << (n < 10 ? " " : "") << n << " ";
    for (int c = 0; c < columns; ++c) {
      int best = -1;
      Duration best_d = 0;
      for (std::size_t s = 0; s < kNodeStateCount; ++s) {
        const Duration d = cover[static_cast<std::size_t>(n)]
                                [static_cast<std::size_t>(c) * kNodeStateCount + s];
        if (d > best_d) {
          best_d = d;
          best = static_cast<int>(s);
        }
      }
      os << (best < 0 ? ' ' : glyph[best]);
    }
    os << "\n";
  }
  return os.str();
}

void Tracer::clear() {
  states_by_node_.clear();
  messages_.clear();
  flat_states_.clear();
  flat_dirty_ = false;
}

}  // namespace dvx::sim
