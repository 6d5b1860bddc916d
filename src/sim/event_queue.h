// Discrete-event simulation core: a tick-ordered event queue.
//
// Two kinds of events are supported:
//  * Reusable `Event` objects owned by the caller (no allocation per schedule;
//    used for hot paths such as per-cycle core ticks).
//  * One-shot callbacks scheduled with `ScheduleFn` (owned by the queue).
//
// Events scheduled for the same tick fire in FIFO order of scheduling.
//
// Internally every scheduled event carries a (tick, schedule sequence) key
// from one counter, and the earliest key fires next. Keys live in two places:
//  * Lanes: a small flat array with one slot per registered Event (each
//    core's tick event). Scheduling, rescheduling or cancelling a lane is an
//    O(1) overwrite of its slot, with no heap entry left behind.
//  * One binary heap for everything else. Its entries are 32 bytes and
//    trivially copyable: a one-shot callback lives in a slot table and the
//    entry holds only its index, so sifting never moves a std::function.
//    Cancellation and reschedule are O(1) via generation counters; stale
//    entries are skipped when they reach the top and compacted away
//    whenever they outnumber live ones.
// Each dispatch compares the live heap top with every lane once, so the
// firing order is exactly the one a single heap of all keys would give. The
// heap stays shallow because self-rescheduling actors take most of their
// ticks in place through AdvanceIfIdle instead of as queue events.
//
// Quiet lanes: a lane event whose next ticks touch nothing outside itself
// (a core whose every thread is mid-Compute) says so through
// Event::QuietUntil. When the earliest key is such a lane, one dispatch
// advances every lane due before the next tick anything else could happen
// (a bulk step, see FireNext), and re-keys them in the order one-tick
// stepping would have left. Ticks, state and firing order are unchanged;
// the bulk step counts as one dispatch in events_fired().
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/types.h"

// Forces inlining of the few queue helpers on the per-tick paths (see
// EventQueue::NextTick).
#if defined(__GNUC__) || defined(__clang__)
#define CASC_QUEUE_INLINE __attribute__((always_inline)) inline
#else
#define CASC_QUEUE_INLINE inline
#endif

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

  // Quiet lanes (lane events only; see the header comment). The first tick
  // >= when() at which firing this event is not quiet: ticks in [when(),
  // QuietUntil()) may be applied by AdvanceQuiet instead of Fire, because
  // they change nothing but this event's own state. Asked only while the
  // event is scheduled; the default, when(), means "never quiet".
  virtual Tick QuietUntil() const { return when_; }
  // Applies the quiet ticks [from, to) in one step, with to <=
  // QuietUntil(). The queue then re-keys the event at `to`.
  virtual void AdvanceQuiet(Tick /*from*/, Tick /*to*/) {}

  bool scheduled() const { return scheduled_; }
  Tick when() const { return when_; }

 private:
  friend class EventQueue;
  static constexpr uint32_t kNoLane = UINT32_MAX;
  Tick when_ = 0;
  uint64_t generation_ = 0;  // bumped on every heap (de)schedule to invalidate stale entries
  uint32_t lane_ = kNoLane;  // slot in the queue's lane table, if it has one
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
    return true;
  }

  // The first tick >= now() that AdvanceIfIdle refuses: the earliest live
  // event or one past the innermost run limit, whichever comes first. Every
  // tick before it may be taken in place, so an actor can cover a run of
  // them in one closed-form step (BaselineCpu's compute chunks).
  Tick AdvanceHorizon() const {
    constexpr Tick kMax = std::numeric_limits<Tick>::max();
    const Tick past_limit = advance_limit_ == kMax ? kMax : advance_limit_ + 1;
    return std::max(now_, std::min(NextTick(), past_limit));
  }

  // Gives `ev` its own lane: from now on its schedules, reschedules and
  // cancels overwrite one slot instead of pushing heap entries, with firing
  // order unchanged. For the few events rescheduled on almost every dispatch
  // (one per core). Call once per event, while it is unscheduled. Every
  // dispatch scans every lane, so keep them few. There is no unregister:
  // the queue touches a lane's event only while it is scheduled, as with
  // any Event.
  void RegisterLane(Event* ev);

  // Schedules `ev` to fire at absolute tick `when`. If `ev` is already
  // scheduled it is rescheduled. A `when` in the past is clamped to now(), so
  // the clock never runs backwards when the entry fires.
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
  // in place through AdvanceIfIdle are not events and are not counted, and
  // a bulk step of quiet lanes counts as one dispatch however many lanes
  // and ticks it covers.
  uint64_t events_fired() const { return fired_count_; }

  // Heap storage footprint including dead (rescheduled/cancelled) entries;
  // lanes take no heap entries. Exposed so tests can assert dead-entry
  // growth stays bounded.
  size_t InternalEntryCount() const { return heap_.size(); }

  // Tick of the earliest live event, or Tick max if empty. Inlined at every
  // call (AdvanceIfIdle and AdvanceHorizon), as are the helpers it shares
  // with FireNext: Core::Cycle's chain runs it whenever it reaches the
  // earliest-live bound, and a call there made reqbench rpc_fabric about 5%
  // slower.
  CASC_QUEUE_INLINE Tick NextTick() const {
    // Logically const: dropping dead entries off the top does not change
    // the observable queue state.
    const_cast<EventQueue*>(this)->DropDeadTop();
    Tick next = heap_.empty() ? std::numeric_limits<Tick>::max() : heap_.front().when;
    for (const Lane& lane : lanes_) {
      next = std::min(next, lane.when);
    }
    return next;
  }

  // Fires the earliest event. Returns false if the queue is empty. Never
  // takes a bulk step of quiet lanes: one dispatch is one event at one tick,
  // which makes a RunOne loop the one-tick reference for RunUntil.
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
  struct Entry {
    Tick when;
    uint64_t seq;  // tie-break for FIFO order within a tick
    Event* ev;     // nullptr for a one-shot entry
    uint64_t aux;  // Event entry: generation that must match ev->generation_
                   // to be live; one-shot entry: index of its callback in fns_
  };
  // Sifting copies entries; a std::function inside would make every copy an
  // indirect move and double the entry size.
  static_assert(sizeof(Entry) == 32 && std::is_trivially_copyable_v<Entry>);
  // The std heap functions keep the greatest element first; "greater" is later.
  struct HeapCmp {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  // A lane's key while its event is scheduled. An idle lane holds the
  // default key, which sorts after every scheduled one (sequence numbers
  // never reach kIdleSeq), so a scan needs no scheduled check.
  static constexpr uint64_t kIdleSeq = UINT64_MAX;
  struct Lane {
    Tick when = std::numeric_limits<Tick>::max();
    uint64_t seq = kIdleSeq;
    Event* ev = nullptr;
  };
  static bool Earlier(Tick aw, uint64_t as, Tick bw, uint64_t bs) {
    return aw != bw ? aw < bw : as < bs;
  }

  // A one-shot entry is live until popped; an Event entry goes dead when the
  // event is cancelled or rescheduled (its generation moves on).
  static bool IsLive(const Entry& e) {
    return e.ev == nullptr || (e.ev->scheduled_ && e.ev->generation_ == e.aux);
  }

  Tick SaturatingFromNow(Tick delta) const {
    return delta > std::numeric_limits<Tick>::max() - now_ ? std::numeric_limits<Tick>::max()
                                                           : now_ + delta;
  }
  void AddEntry(const Entry& entry);
  CASC_QUEUE_INLINE void PopTop() {
    std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
    heap_.pop_back();
  }
  CASC_QUEUE_INLINE void DropDeadTop() {
    while (!heap_.empty() && !IsLive(heap_.front())) {
      PopTop();
    }
  }
  void MaybeCompact();
  // Fires the earliest live event (heap top or lane) if its tick is <=
  // `limit`; returns false, firing nothing, otherwise or when empty. With
  // `bulk`, an earliest key that is a quiet lane may instead take a bulk
  // step (StepQuietLanes), which also returns true.
  bool FireNext(Tick limit, bool bulk);
  // The bulk step: see the definition. Returns false, changing nothing, if
  // no lane is due before the step's end.
  bool StepQuietLanes(Tick heap_when);

  std::vector<Entry> heap_;  // live entries plus not-yet-reclaimed dead ones
  std::vector<Lane> lanes_;  // by Event::lane_
  // One-shot callbacks by slot. A slot is freed when its entry is popped,
  // after the callback has been moved out, so the callback may schedule
  // one-shots that reuse the slot.
  std::vector<std::function<void()>> fns_;
  std::vector<uint64_t> free_fns_;
  Tick now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t generation_counter_ = 0;
  size_t live_count_ = 0;  // heap entries plus lanes
  size_t live_lanes_ = 0;
  uint64_t fired_count_ = 0;
  Tick advance_limit_ = 0;  // AdvanceIfIdle ceiling; raised inside RunUntil/RunAll
  Tick next_live_lb_ = 0;   // <= earliest live tick; lowered by every schedule
  // Last, so the fields AdvanceIfIdle reads every tick keep their offsets.
  std::vector<Lane*> quiet_;  // StepQuietLanes scratch
};

}  // namespace casc

#endif  // SRC_SIM_EVENT_QUEUE_H_
