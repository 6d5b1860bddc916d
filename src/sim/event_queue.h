// Discrete-event simulation core: a tick-ordered event queue.
//
// Two kinds of events are supported:
//  * Reusable `Event` objects owned by the caller (no allocation per schedule;
//    used for hot paths such as per-cycle core ticks).
//  * One-shot callbacks scheduled with `ScheduleFn` (owned by the queue).
//
// Events scheduled for the same tick fire in FIFO order of scheduling.
//
// Internally a hierarchical timing wheel: events within `kWheelTicks` of
// now() live in per-tick buckets selected by `when % kWheelTicks` (an O(1)
// append), with a bitmap tracking occupied buckets so the next-event scan is
// a handful of word operations instead of heap churn. Far-future events
// overflow into a small binary heap and migrate into the wheel as now()
// advances. Cancellation and reschedule are O(1) via generation counters;
// stale entries are skipped at fire time and compacted away whenever they
// outnumber live ones.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/sim/types.h"

namespace casc {

class EventQueue;

// A reusable event. The owner keeps the object alive while it is scheduled.
// An Event can be scheduled on at most one queue at a time.
class Event {
 public:
  Event() = default;
  virtual ~Event() = default;
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  virtual void Fire() = 0;

  bool scheduled() const { return scheduled_; }
  Tick when() const { return when_; }

 private:
  friend class EventQueue;
  Tick when_ = 0;
  uint64_t generation_ = 0;  // bumped on every (de)schedule to invalidate stale entries
  bool scheduled_ = false;
};

// Adapts a callable into a reusable Event.
template <typename Fn>
class LambdaEvent final : public Event {
 public:
  explicit LambdaEvent(Fn fn) : fn_(std::move(fn)) {}
  void Fire() override { fn_(); }

 private:
  Fn fn_;
};

class EventQueue {
 public:
  // Wheel span in ticks. At the default 3 GHz that is ~1.4 us of simulated
  // time — larger than every in-flight latency the simulator charges (cache
  // misses, IPIs, context restores), so in practice only long timers take
  // the heap overflow path.
  static constexpr Tick kWheelTicks = 4096;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Tick now() const { return now_; }

  // Quiet-advance fast path for self-rescheduling actors (the per-core tick):
  // the actor may move the clock to `t` in place and keep going instead of
  // scheduling an event at `t` and paying a full dispatch round trip. Allowed
  // exactly when that event would have been the next to fire with nothing
  // in between: now() <= t <= the innermost RunUntil/RunAll/RunWhile limit
  // (so RunFor(x) still returns control at exactly x), and `t` strictly
  // before the earliest live event (a live event at `t` was scheduled first
  // and must fire first under same-tick FIFO). Firing order and every tick
  // are therefore unchanged; only events_fired() counts fewer dispatches.
  // Otherwise refused and the caller schedules normally. The common check
  // is one compare against a lower bound on the earliest live tick, which
  // is recomputed only when `t` reaches it.
  bool AdvanceIfIdle(Tick t) {
    if (t < now_ || t > advance_limit_) {
      return false;
    }
    if (t >= next_live_lb_) {
      next_live_lb_ = NextTick();
      if (t >= next_live_lb_) {
        return false;
      }
    }
    now_ = t;
    if (!heap_.empty()) {
      DrainHeap();  // the wheel window moved; keep heap entries FIFO-first
    }
    return true;
  }

  // Schedules `ev` to fire at absolute tick `when`. If `ev` is already
  // scheduled it is rescheduled. A `when` in the past is clamped to now():
  // the unsigned distance `when - now_` would otherwise wrap and misfile the
  // entry into the far-future heap, where it jams NextTick()/DrainHeap()
  // (same unsigned-wrap family as the MonitorFilter and InvalidateForWrite
  // fixes).
  void Schedule(Event* ev, Tick when);

  // Convenience: schedule relative to now. Saturates at Tick max so a delay
  // armed near the top of tick space cannot wrap into the past.
  void ScheduleAfter(Event* ev, Tick delta) { Schedule(ev, SaturatingFromNow(delta)); }

  // Removes `ev` from the queue if scheduled. Safe to call on an unscheduled event.
  void Deschedule(Event* ev);

  // Schedules a one-shot callback at absolute tick `when` (past ticks clamp
  // to now(), as with Schedule); the queue owns it.
  void ScheduleFn(Tick when, std::function<void()> fn);
  void ScheduleFnAfter(Tick delta, std::function<void()> fn) {
    ScheduleFn(SaturatingFromNow(delta), std::move(fn));
  }

  bool Empty() const { return live_count_ == 0; }
  size_t LiveCount() const { return live_count_; }

  // Total events dispatched since construction (reusable + one-shot). Used
  // by the host-throughput bench to derive events/sec. Ticks an actor takes
  // in place through AdvanceIfIdle are not events and are not counted.
  uint64_t events_fired() const { return fired_count_; }

  // Internal storage footprint including dead (rescheduled/cancelled)
  // entries. Exposed so tests can assert dead-entry growth stays bounded.
  size_t InternalEntryCount() const { return entry_count_; }

  // Tick of the earliest live event, or Tick max if empty.
  Tick NextTick() const;

  // Fires the earliest event. Returns false if the queue is empty.
  bool RunOne();

  // Runs events with when <= limit; afterwards now() == max(now, limit).
  void RunUntil(Tick limit);

  // Runs until the queue drains or `max_events` have fired. Returns the number fired.
  uint64_t RunAll(uint64_t max_events = UINT64_MAX);

  // Runs events with when <= limit while `pred()` stays true; returns the
  // number fired. Unlike RunUntil, now() is left at the last fired tick
  // rather than bumped to `limit`, so a run that stops early (a machine
  // halt in Machine::DrainBudget) reports the cycle it actually reached.
  uint64_t RunWhile(Tick limit, const std::function<bool()>& pred);

 private:
  static constexpr uint64_t kWheelMask = kWheelTicks - 1;
  static constexpr size_t kBitmapWords = kWheelTicks / 64;

  struct Entry {
    Tick when;
    uint64_t seq;                // tie-break for FIFO order within a tick
    Event* ev;                   // nullptr for one-shot fn entries
    uint64_t generation;         // must match ev->generation_ to be live
    std::function<void()> fn;    // one-shot payload when ev == nullptr

    bool After(const Entry& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  struct HeapCmp {
    bool operator()(const Entry& a, const Entry& b) const { return a.After(b); }
  };

  // A fired entry is marked consumed (ev and fn both null) and is no longer
  // live; a cancelled/rescheduled Event entry goes dead via its generation.
  bool IsLive(const Entry& e) const {
    return e.ev != nullptr ? (e.ev->scheduled_ && e.ev->generation_ == e.generation)
                           : static_cast<bool>(e.fn);
  }

  bool InWheelWindow(Tick when) const { return when - now_ < kWheelTicks; }
  Tick SaturatingFromNow(Tick delta) const {
    return delta > std::numeric_limits<Tick>::max() - now_ ? std::numeric_limits<Tick>::max()
                                                           : now_ + delta;
  }
  void AddEntry(Entry entry);
  void SetBit(size_t bucket) { bitmap_[bucket >> 6] |= 1ull << (bucket & 63); }
  void ClearBucket(size_t bucket);
  // Scans the bucket for a live entry, starting at the fire cursor when the
  // bucket is the active one. Returns the entry index or SIZE_MAX.
  size_t FindLive(size_t bucket) const;
  // Distance in ticks from now() to the earliest occupied wheel bucket with a
  // live entry (cleaning exhausted buckets along the way), or SIZE_MAX.
  // When found and `pos` is non-null, also reports the bucket and entry index
  // so RunOne does not rescan.
  struct WheelPos {
    size_t bucket;
    size_t idx;
  };
  size_t ScanWheel(WheelPos* pos = nullptr);
  // Migrates heap entries that entered the wheel window into their buckets.
  // Must run after every advance of now_ so overflow entries land in bucket
  // order before any same-tick direct schedule (preserves FIFO by seq).
  void DrainHeap();
  void PopDeadHeap();
  void MaybeCompact();

  std::array<std::vector<Entry>, kWheelTicks> wheel_;
  std::array<uint64_t, kBitmapWords> bitmap_{};
  std::vector<Entry> heap_;    // far-future overflow (when - now >= kWheelTicks)
  // Fire cursor: entries [0, active_idx_) of bucket active_bucket_ are
  // consumed or dead. Advanced before Fire() so reentrant schedules are safe.
  size_t active_bucket_ = 0;
  size_t active_idx_ = 0;
  Tick now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t generation_counter_ = 0;
  size_t live_count_ = 0;
  size_t entry_count_ = 0;     // live + not-yet-reclaimed dead, wheel + heap
  uint64_t fired_count_ = 0;
  Tick advance_limit_ = 0;     // AdvanceIfIdle ceiling; raised inside RunUntil/RunAll
  Tick next_live_lb_ = 0;      // <= earliest live tick; lowered by AddEntry
};

}  // namespace casc

#endif  // SRC_SIM_EVENT_QUEUE_H_
