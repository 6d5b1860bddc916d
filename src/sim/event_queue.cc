#include "src/sim/event_queue.h"

#include <algorithm>
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
  AddEntry(Entry{when, next_seq_++, ev, ev->generation_});
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

void EventQueue::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
  heap_.pop_back();
}

void EventQueue::MaybeCompact() {
  // Compact when stale entries outnumber live ones (>50% dead) and there is
  // enough bulk for the O(n) sweep to pay off.
  if (heap_.size() < 64 || heap_.size() - live_count_ <= live_count_) {
    return;
  }
  std::erase_if(heap_, [](const Entry& e) { return !IsLive(e); });
  std::make_heap(heap_.begin(), heap_.end(), HeapCmp{});
  assert(heap_.size() == live_count_);
}

Tick EventQueue::NextTick() const {
  // Logically const: dropping dead entries off the top does not change the
  // observable queue state.
  EventQueue* self = const_cast<EventQueue*>(this);
  while (!heap_.empty() && !IsLive(heap_.front())) {
    self->PopTop();
  }
  return heap_.empty() ? std::numeric_limits<Tick>::max() : heap_.front().when;
}

bool EventQueue::RunOne() {
  if (live_count_ == 0) {
    return false;
  }
  NextTick();  // the top is now the earliest live entry
  const Entry e = heap_.front();
  PopTop();
  now_ = e.when;
  live_count_--;
  fired_count_++;
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
  now_ = std::max(now_, limit);
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
