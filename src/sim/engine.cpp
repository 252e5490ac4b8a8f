#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "check/check.hpp"

namespace dvx::sim {

Engine::Engine() : audit_interval_(check::default_audit_interval()) {
  heap_.resize(kHeapPad);  // front pad: aligns 4-child groups
}

Engine::~Engine() {
  for (auto& r : roots_) {
    if (r.handle) r.handle.destroy();
  }
}

void Engine::spawn(Coro<void> coro, Time start) {
  DVX_CHECK(coro.valid()) << "spawn of an empty/moved-from coroutine";
  const Time now_t = now();
  Root& root = roots_.emplace_back(Root{coro.release(), false});
  root.handle.promise().done_flag = &root.done;
  schedule_handle(start < now_t ? now_t : start, root.handle);
}

// Logical heap index i lives at heap[i + kHeapPad]; children of logical i
// are logical 4i+1 .. 4i+4. All index arithmetic below is in logical terms
// with the pad applied at the subscript.

void Engine::heap_push(Time t, std::uint64_t key) {
  auto& heap = heap_;
  std::size_t i = heap.size() - kHeapPad;
  heap.push_back(HeapEntry{t, key});
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    const HeapEntry p = heap[parent + kHeapPad];
    if (p.t < t || (p.t == t && p.key < key)) break;
    heap[i + kHeapPad] = p;
    i = parent;
  }
  heap[i + kHeapPad] = HeapEntry{t, key};
}

Engine::HeapEntry Engine::heap_pop() {
  auto& heap = heap_;
  const HeapEntry top = heap[kHeapPad];
  const HeapEntry last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size() - kHeapPad;
  if (n != 0) {
    // Sift the hole along the min-child path all the way to a leaf, then
    // bubble `last` back up. Compared to the textbook early-exit sift-down
    // this trades a couple of extra moves for the removal of one
    // unpredictable branch per level: the min-of-4 selection compiles to
    // conditional moves and the only data-dependent branches are in the
    // short (expected O(1) levels) bubble-up.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first + 4 <= n) {  // full child group: branch-free min selection
        std::size_t best = first;
        best = entry_before(heap[first + 1 + kHeapPad], heap[best + kHeapPad])
                   ? first + 1
                   : best;
        best = entry_before(heap[first + 2 + kHeapPad], heap[best + kHeapPad])
                   ? first + 2
                   : best;
        best = entry_before(heap[first + 3 + kHeapPad], heap[best + kHeapPad])
                   ? first + 3
                   : best;
#if defined(__GNUC__) || defined(__clang__)
        // The winner's own child group is the next line the walk reads.
        if (4 * best + 1 + kHeapPad < heap.size()) {
          __builtin_prefetch(&heap[4 * best + 1 + kHeapPad]);
        }
#endif
        heap[i + kHeapPad] = heap[best + kHeapPad];
        i = best;
      } else if (first < n) {  // partial group at the frontier
        std::size_t best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (entry_before(heap[c + kHeapPad], heap[best + kHeapPad])) best = c;
        }
        heap[i + kHeapPad] = heap[best + kHeapPad];
        i = best;
        break;
      } else {
        break;
      }
    }
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!entry_before(last, heap[parent + kHeapPad])) break;
      heap[i + kHeapPad] = heap[parent + kHeapPad];
      i = parent;
    }
    heap[i + kHeapPad] = last;
  }
  return top;
}

std::uint64_t Engine::make_key(bool callback, std::uint32_t slot) {
  // Both packed fields are guarded here, at the single point where the key
  // is assembled: a slot above kSlotMask or a seq at kMaxSeq would silently
  // corrupt the (time, insertion-seq) comparison order.
  DVX_CHECK(slot <= kSlotMask)
      << "event slot " << slot << " overflows the " << kSlotBits
      << "-bit key field";
  DVX_CHECK(next_seq_ < kMaxSeq) << "event sequence space exhausted";
  const std::uint64_t seq = next_seq_++;
  return (seq << kKeyShift) | (callback ? kCallbackBit : 0) | slot;
}

void Engine::push_event(Time t, bool callback, std::coroutine_handle<> h,
                        std::function<void()> fn) {
  DVX_CHECK(t >= now_) << "cannot schedule into the past: t=" << t
                       << " now=" << now_;
  std::uint32_t slot;
  if (!callback) {
    if (!handle_free_.empty()) {
      slot = handle_free_.back();
      handle_free_.pop_back();
      handle_slab_[slot] = h;
    } else {
      slot = static_cast<std::uint32_t>(handle_slab_.size());
      DVX_CHECK(slot <= kSlotMask) << "too many outstanding coroutine events";
      handle_slab_.push_back(h);
    }
  } else {
    if (!fn_free_.empty()) {
      slot = fn_free_.back();
      fn_free_.pop_back();
      fn_slab_[slot] = std::move(fn);
    } else {
      slot = static_cast<std::uint32_t>(fn_slab_.size());
      DVX_CHECK(slot <= kSlotMask) << "too many outstanding callback events";
      fn_slab_.push_back(std::move(fn));
    }
  }
  heap_push(t, make_key(callback, slot));
}

void Engine::schedule_handle(Time t, std::coroutine_handle<> h) {
  push_event(t, /*callback=*/false, h, {});
}

void Engine::schedule(Time t, std::function<void()> fn) {
  push_event(t, /*callback=*/true, {}, std::move(fn));
}

void Engine::add_auditor(check::InvariantAuditor* auditor) {
  DVX_CHECK(auditor != nullptr);
  auditors_.push_back(auditor);
}

void Engine::remove_auditor(check::InvariantAuditor* auditor) noexcept {
  auditors_.erase(std::remove(auditors_.begin(), auditors_.end(), auditor),
                  auditors_.end());
}

void Engine::run_audits() {
  // Level-2 headroom audit: the seq counter must stay inside the
  // representable key range (make_key aborts the run at the edge; this
  // catches the counter drifting toward it between dispatches).
  DVX_CHECK_SOON(next_seq_ < kMaxSeq)
      << "insertion-seq counter left the representable range";
  if (auditors_.empty()) return;
  ++audits_run_;
  for (auto* a : auditors_) a->audit(now_);
}

void Engine::dispatch_one() {
#if defined(__GNUC__) || defined(__clang__)
  {
    // Start the payload fetch before the sift-down: the slab slot of the
    // event about to fire is random relative to insertion order, and the
    // O(log n) sift gives the line time to arrive.
    const std::uint64_t top_key = heap_[kHeapPad].key;
    const auto top_slot = static_cast<std::uint32_t>(top_key & kSlotMask);
    if ((top_key & kCallbackBit) == 0) {
      __builtin_prefetch(&handle_slab_[top_slot]);
    } else {
      __builtin_prefetch(&fn_slab_[top_slot]);
    }
  }
#endif
  const HeapEntry ev = heap_pop();
  // Event-time monotonicity: the queue must never yield an event behind
  // the clock (would reorder causally dependent wake-ups).
  DVX_CHECK(ev.t >= now_) << "non-monotonic event: t=" << ev.t
                          << " behind now=" << now_;
  now_ = ev.t;
#if DVX_CHECK_LEVEL >= 1
  check::context().sim_time_ps = ev.t;
#endif
  ++events_;
  const auto slot = static_cast<std::uint32_t>(ev.key & kSlotMask);
  if ((ev.key & kCallbackBit) == 0) {
    // Free the slot before resuming: the resumed coroutine may schedule
    // again and should find its own slot first on the free list.
    const std::coroutine_handle<> h = handle_slab_[slot];
    handle_slab_[slot] = {};
    handle_free_.push_back(slot);
    h.resume();
  } else {
    // Move the callback out first — running it may schedule into the slab
    // and invalidate references. Moving never allocates; the slot object
    // is recycled for the next callback of this size class.
    std::function<void()> fn = std::move(fn_slab_[slot]);
    fn_slab_[slot] = nullptr;
    fn_free_.push_back(slot);
    fn();
  }
}

Time Engine::run() {
  while (!heap_empty()) {
    dispatch_one();
    if (audit_interval_ != 0 && events_ % audit_interval_ == 0) run_audits();
  }
  // The heap drained: no live entry can tie with a future one, so the
  // tie-break counter rewinds and kMaxSeq bounds a busy period, not a run.
  next_seq_ = 0;
  run_audits();  // drain-time sweep: short runs get audited too
  // Surface failures from simulated processes to the caller (tests rely on it).
  for (auto& r : roots_) {
    if (r.handle && r.handle.promise().exception) {
      std::rethrow_exception(r.handle.promise().exception);
    }
  }
  return now_;
}

bool Engine::all_done() const noexcept {
  for (const auto& r : roots_) {
    if (!r.done) return false;
  }
  return true;
}

}  // namespace dvx::sim
