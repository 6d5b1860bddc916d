#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace casc {

void EventQueue::Schedule(Event* ev, Tick when) {
  assert(ev != nullptr);
  if (when < now_) {
    when = now_;  // see the header comment on past-tick clamping
  }
  if (ev->scheduled_) {
    // Reschedule: invalidate the old entry via a new generation.
    live_count_--;
  }
  ev->scheduled_ = true;
  ev->when_ = when;
  ev->generation_ = ++generation_counter_;
  AddEntry(Entry{when, next_seq_++, ev, ev->generation_, nullptr});
  live_count_++;
  MaybeCompact();
}

void EventQueue::Deschedule(Event* ev) {
  assert(ev != nullptr);
  if (!ev->scheduled_) {
    return;
  }
  ev->scheduled_ = false;
  ev->generation_ = ++generation_counter_;
  live_count_--;
  MaybeCompact();
}

void EventQueue::ScheduleFn(Tick when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;  // see the header comment on past-tick clamping
  }
  AddEntry(Entry{when, next_seq_++, nullptr, 0, std::move(fn)});
  live_count_++;
}

void EventQueue::AddEntry(Entry entry) {
  entry_count_++;
  next_live_lb_ = std::min(next_live_lb_, entry.when);
  if (InWheelWindow(entry.when)) {
    const size_t bucket = static_cast<size_t>(entry.when & kWheelMask);
    wheel_[bucket].push_back(std::move(entry));
    SetBit(bucket);
  } else {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), HeapCmp{});
  }
}

void EventQueue::ClearBucket(size_t bucket) {
  entry_count_ -= wheel_[bucket].size();
  wheel_[bucket].clear();
  bitmap_[bucket >> 6] &= ~(1ull << (bucket & 63));
  if (bucket == active_bucket_) {
    active_idx_ = 0;
  }
}

size_t EventQueue::FindLive(size_t bucket) const {
  const std::vector<Entry>& vec = wheel_[bucket];
  for (size_t i = bucket == active_bucket_ ? active_idx_ : 0; i < vec.size(); i++) {
    if (IsLive(vec[i])) {
      return i;
    }
  }
  return SIZE_MAX;
}

size_t EventQueue::ScanWheel(WheelPos* pos) {
  // Walk occupied buckets in increasing distance from now()'s bucket,
  // wrapping once. The start word is visited twice: high bits first, then
  // (after the wrap) its low bits.
  const size_t start = static_cast<size_t>(now_ & kWheelMask);
  for (size_t i = 0; i <= kBitmapWords; i++) {
    const size_t w = ((start >> 6) + i) & (kBitmapWords - 1);
    uint64_t word = bitmap_[w];
    if (i == 0) {
      word &= ~0ull << (start & 63);
    } else if (i == kBitmapWords) {
      word &= (1ull << (start & 63)) - 1;
    }
    while (word != 0) {
      // Low bit first = nearest bucket first: every bucket in this masked
      // word view shares the same wrap status relative to `start`.
      const size_t bucket = (w << 6) + static_cast<size_t>(std::countr_zero(word));
      const size_t idx = FindLive(bucket);
      if (idx != SIZE_MAX) {
        if (pos != nullptr) {
          pos->bucket = bucket;
          pos->idx = idx;
        }
        return (bucket - start) & kWheelMask;
      }
      ClearBucket(bucket);  // only dead/consumed entries left — reclaim now
      word &= word - 1;
    }
  }
  return SIZE_MAX;
}

void EventQueue::DrainHeap() {
  while (!heap_.empty()) {
    if (!IsLive(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
      heap_.pop_back();
      entry_count_--;
      continue;
    }
    if (!InWheelWindow(heap_.front().when)) {
      break;
    }
    std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    const size_t bucket = static_cast<size_t>(e.when & kWheelMask);
    wheel_[bucket].push_back(std::move(e));
    SetBit(bucket);
  }
}

void EventQueue::PopDeadHeap() {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
    heap_.pop_back();
    entry_count_--;
  }
}

void EventQueue::MaybeCompact() {
  // Compact when stale entries outnumber live ones (>50% dead) and there is
  // enough bulk for the O(n) sweep to pay off.
  if (entry_count_ < 64 || entry_count_ - live_count_ <= live_count_) {
    return;
  }
  for (size_t w = 0; w < kBitmapWords; w++) {
    uint64_t word = bitmap_[w];
    while (word != 0) {
      const size_t bucket = (w << 6) + static_cast<size_t>(std::countr_zero(word));
      word &= word - 1;
      std::vector<Entry>& vec = wheel_[bucket];
      std::erase_if(vec, [this](const Entry& e) { return !IsLive(e); });
      if (vec.empty()) {
        bitmap_[bucket >> 6] &= ~(1ull << (bucket & 63));
      }
    }
  }
  std::erase_if(heap_, [this](const Entry& e) { return !IsLive(e); });
  std::make_heap(heap_.begin(), heap_.end(), HeapCmp{});
  entry_count_ = live_count_;
  // All consumed/dead prefix entries were erased, so the fire cursor restarts.
  active_idx_ = 0;
}

Tick EventQueue::NextTick() const {
  // Logically const: cleaning exhausted buckets / dead heap tops does not
  // change the observable queue state.
  EventQueue* self = const_cast<EventQueue*>(this);
  const size_t d = self->ScanWheel();
  if (d != SIZE_MAX) {
    return now_ + d;
  }
  // Wheel is empty, so the earliest live event (if any) is the heap top,
  // which the drain invariant keeps >= now + kWheelTicks.
  self->PopDeadHeap();
  if (heap_.empty()) {
    return std::numeric_limits<Tick>::max();
  }
  return heap_.front().when;
}

bool EventQueue::RunOne() {
  if (live_count_ == 0) {
    return false;
  }
  // One combined scan locates the next live entry. A heap entry for the
  // post-advance tick cannot exist while a wheel entry for it does (it would
  // already have been drained on an earlier advance), so the cached position
  // stays the bucket's first live entry across DrainHeap (which only appends).
  WheelPos pos;
  size_t d = ScanWheel(&pos);
  if (d != SIZE_MAX) {
    now_ += d;
    if (!heap_.empty()) {
      DrainHeap();
    }
  } else {
    // Wheel is empty: jump to the heap top and migrate, then rescan — the
    // drain lands same-tick entries in (when, seq) pop order, so the first
    // live entry of the target bucket is the FIFO head.
    PopDeadHeap();
    assert(!heap_.empty());
    now_ = heap_.front().when;
    DrainHeap();
    d = ScanWheel(&pos);
    assert(d == 0);
    (void)d;
  }
  // Mark the entry consumed and advance the cursor *before* firing: the
  // callback may schedule into this bucket (reallocating it) or trigger
  // compaction, so no reference may be held across Fire().
  const size_t bucket = pos.bucket;
  Entry& slot = wheel_[bucket][pos.idx];
  Event* ev = slot.ev;
  active_bucket_ = bucket;
  active_idx_ = pos.idx + 1;
  live_count_--;
  fired_count_++;
  if (ev != nullptr) {
    slot.ev = nullptr;  // fn is already empty for Event entries
    ev->scheduled_ = false;
    ev->Fire();
  } else {
    std::function<void()> fn = std::move(slot.fn);
    slot.fn = nullptr;
    fn();
  }
  if (active_bucket_ == bucket && active_idx_ >= wheel_[bucket].size()) {
    ClearBucket(bucket);
  }
  return true;
}

void EventQueue::RunUntil(Tick limit) {
  const Tick saved_limit = advance_limit_;
  advance_limit_ = limit;
  // The live check matters at limit == Tick max: the empty-queue sentinel
  // (NextTick() == Tick max) satisfies `<= limit` and RunOne() on an empty
  // queue is a no-op, which would spin forever.
  while (live_count_ != 0 && NextTick() <= limit) {
    RunOne();
  }
  advance_limit_ = saved_limit;
  if (now_ < limit) {
    now_ = limit;
    DrainHeap();  // the wheel window moved; restore the heap-top invariant
  }
}

uint64_t EventQueue::RunAll(uint64_t max_events) {
  const Tick saved_limit = advance_limit_;
  advance_limit_ = std::numeric_limits<Tick>::max();
  uint64_t fired = 0;
  while (fired < max_events && RunOne()) {
    fired++;
  }
  advance_limit_ = saved_limit;
  return fired;
}

uint64_t EventQueue::RunWhile(Tick limit, const std::function<bool()>& pred) {
  const Tick saved_limit = advance_limit_;
  advance_limit_ = limit;
  uint64_t fired = 0;
  while (pred() && NextTick() <= limit && RunOne()) {
    fired++;
  }
  advance_limit_ = saved_limit;
  return fired;
}

}  // namespace casc
