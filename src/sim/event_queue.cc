#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace casc {

void EventQueue::RegisterLane(Event* ev) {
  assert(ev != nullptr && !ev->scheduled_ && ev->lane_ == Event::kNoLane);
  ev->lane_ = static_cast<uint32_t>(lanes_.size());
  lanes_.push_back(Lane{.ev = ev});
}

void EventQueue::Schedule(Event* ev, Tick when) {
  assert(ev != nullptr);
  if (when < now_) {
    when = now_;  // see the header comment on past-tick clamping
  }
  if (!ev->scheduled_) {
    live_count_++;
    live_lanes_ += ev->lane_ != Event::kNoLane;
  }
  ev->scheduled_ = true;
  ev->when_ = when;
  if (ev->lane_ != Event::kNoLane) {
    // A lane overwrites its key in place; the fresh sequence number keeps it
    // in the order a new heap entry would have taken.
    next_live_lb_ = std::min(next_live_lb_, when);
    lanes_[ev->lane_] = Lane{when, next_seq_++, ev};
    return;
  }
  // Reschedule or first schedule: any old entry dies with the generation.
  ev->generation_ = ++generation_counter_;
  AddEntry(Entry{when, next_seq_++, ev, ev->generation_});
  MaybeCompact();
}

void EventQueue::Deschedule(Event* ev) {
  assert(ev != nullptr);
  if (!ev->scheduled_) {
    return;
  }
  ev->scheduled_ = false;
  live_count_--;
  if (ev->lane_ != Event::kNoLane) {
    live_lanes_--;
    lanes_[ev->lane_] = Lane{.ev = ev};
    return;
  }
  ev->generation_ = ++generation_counter_;
  MaybeCompact();
}

void EventQueue::ScheduleFn(Tick when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;  // see the header comment on past-tick clamping
  }
  uint64_t slot = fns_.size();
  if (free_fns_.empty()) {
    fns_.push_back(std::move(fn));
  } else {
    slot = free_fns_.back();
    free_fns_.pop_back();
    fns_[slot] = std::move(fn);
  }
  AddEntry(Entry{when, next_seq_++, nullptr, slot});
  live_count_++;
  MaybeCompact();
}

void EventQueue::AddEntry(const Entry& entry) {
  next_live_lb_ = std::min(next_live_lb_, entry.when);
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), HeapCmp{});
}

void EventQueue::MaybeCompact() {
  // Compact when stale entries outnumber live ones (>50% dead) and there is
  // enough bulk for the O(n) sweep to pay off.
  const size_t heap_live = live_count_ - live_lanes_;
  if (heap_.size() < 64 || heap_.size() - heap_live <= heap_live) {
    return;
  }
  std::erase_if(heap_, [](const Entry& e) { return !IsLive(e); });
  std::make_heap(heap_.begin(), heap_.end(), HeapCmp{});
  assert(heap_.size() == heap_live);
}

bool EventQueue::FireNext(Tick limit, bool bulk) {
  DropDeadTop();
  Tick heap_when = std::numeric_limits<Tick>::max();
  uint64_t seq = kIdleSeq;
  if (!heap_.empty()) {
    heap_when = heap_.front().when;
    seq = heap_.front().seq;
  }
  Tick when = heap_when;
  Lane* lane = nullptr;
  for (Lane& l : lanes_) {
    if (Earlier(l.when, l.seq, when, seq)) {
      lane = &l;
      when = l.when;
      seq = l.seq;
    }
  }
  if (seq == kIdleSeq || when > limit) {
    return false;  // empty, or the earliest live event lies beyond `limit`
  }
  if (lane != nullptr && bulk && lane->ev->QuietUntil() > when && StepQuietLanes(heap_when)) {
    return true;
  }
  now_ = when;
  live_count_--;
  fired_count_++;
  if (lane != nullptr) {
    Event* ev = lane->ev;
    live_lanes_--;
    *lane = Lane{.ev = ev};
    ev->scheduled_ = false;
    ev->Fire();
    return true;
  }
  const Entry e = heap_.front();
  PopTop();
  if (e.ev != nullptr) {
    e.ev->scheduled_ = false;
    e.ev->Fire();
  } else {
    // Move the callback out before freeing its slot: the callback may
    // schedule one-shots, which reuse free slots.
    std::function<void()> fn = std::exchange(fns_[e.aux], nullptr);
    free_fns_.push_back(e.aux);
    fn();
  }
  MaybeCompact();  // firing removed a live entry; dead ones may now dominate
  return true;
}

// Called when the earliest key is a lane that reports quiet ticks. The step
// ends at x, the minimum of the live heap top, AdvanceIfIdle's ceiling + 1,
// and every scheduled lane's QuietUntil(). Nothing but quiet lane ticks can
// happen before x: no heap event is due, and every lane due before x is
// quiet up to x. Quiet ticks of different lanes commute, so each of those
// lanes applies [when, x) in one AdvanceQuiet call.
//
// They are then re-keyed at x in the order one-tick stepping leaves: a lane
// ticking one at a time draws a fresh sequence number at every tick, so at
// each tick the lanes that only just became due (keys from before the step)
// fire ahead of the ones already ticking, in their old order. Unrolled, that
// is old tick descending, then old sequence ascending. Fresh numbers also
// keep every key already at x (heap or lane) ahead of the re-keyed lanes,
// as it was there first. now() ends at x - 1, the last tick stepped.
bool EventQueue::StepQuietLanes(Tick heap_when) {
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  Tick x = std::min(heap_when, advance_limit_ == kMax ? kMax : advance_limit_ + 1);
  // A lane skipped here has when >= x at the time, so when >= the final x:
  // its QuietUntil() (never below when) cannot lower x further.
  for (const Lane& l : lanes_) {
    if (l.when < x) {
      x = std::min(x, l.ev->QuietUntil());
    }
  }
  quiet_.clear();
  for (Lane& l : lanes_) {
    if (l.when < x) {
      quiet_.push_back(&l);
    }
  }
  if (quiet_.empty()) {
    return false;
  }
  std::sort(quiet_.begin(), quiet_.end(), [](const Lane* a, const Lane* b) {
    return a->when != b->when ? a->when > b->when : a->seq < b->seq;
  });
  now_ = x - 1;
  fired_count_++;
  for (Lane* l : quiet_) {
    l->ev->AdvanceQuiet(l->when, x);
    l->when = x;
    l->seq = next_seq_++;
    l->ev->when_ = x;
  }
  return true;
}

bool EventQueue::RunOne() { return FireNext(std::numeric_limits<Tick>::max(), /*bulk=*/false); }

void EventQueue::RunUntil(Tick limit) {
  const Tick saved_limit = advance_limit_;
  advance_limit_ = limit;
  while (FireNext(limit, /*bulk=*/true)) {
  }
  advance_limit_ = saved_limit;
  now_ = std::max(now_, limit);
}

uint64_t EventQueue::RunAll(uint64_t max_events) {
  const Tick saved_limit = advance_limit_;
  advance_limit_ = std::numeric_limits<Tick>::max();
  uint64_t fired = 0;
  while (fired < max_events && FireNext(std::numeric_limits<Tick>::max(), /*bulk=*/true)) {
    fired++;
  }
  advance_limit_ = saved_limit;
  return fired;
}

uint64_t EventQueue::RunWhile(Tick limit, const std::function<bool()>& pred) {
  const Tick saved_limit = advance_limit_;
  advance_limit_ = limit;
  uint64_t fired = 0;
  while (pred() && FireNext(limit, /*bulk=*/true)) {
    fired++;
  }
  advance_limit_ = saved_limit;
  return fired;
}

}  // namespace casc
