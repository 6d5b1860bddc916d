// Per-core hardware scheduling of runnable ptids onto SMT slots (§4 "Support
// for Thread Scheduling"): fine-grain weighted round robin, which emulates
// processor sharing, plus optional preemptive insertion of woken
// time-critical threads.
#ifndef SRC_HWT_SCHED_QUEUE_H_
#define SRC_HWT_SCHED_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/hwt/hw_thread.h"
#include "src/sim/types.h"

namespace casc {

class SchedQueue {
 public:
  // Adds a ptid to the rotation. If `front` is true the thread is inserted
  // at the cursor (time-critical preemptive wake, §4).
  void Add(HwThread* thread, bool front = false);

  // Removes a ptid (thread stopped / blocked).
  void Remove(Ptid ptid);

  // Selects up to `width` distinct threads that may issue one instruction at
  // `now` (runnable and restore complete). Weighted RR: a thread keeps its
  // slot for `prio` consecutive picks before the cursor advances past it.
  //
  // When `unpicked_min` is non-null the scan visits every slot (instead of
  // stopping once the SMT slots are full) and reports the minimum ready_at
  // over the runnable threads it did NOT pick (Tick max if none). Combined
  // with generation(), that lets Core::Cycle reconstruct NextWorkTick after
  // stepping without a second rotation walk: unpicked threads' (state,
  // ready_at) cannot have changed unless some Add/Remove ran, because every
  // cross-thread wake/stop path goes through those two calls.
  //
  // Defined here (with NextWorkTick) so the per-tick scan inlines into
  // Core::Cycle: the two calls account for a fifth of host time when left
  // out of line, and inlining keeps the rotation base/size in registers
  // across the pick -> step -> next-work sequence.
  void PickUpTo(Tick now, uint32_t width, std::vector<HwThread*>* out,
                Tick* unpicked_min = nullptr) {
    out->resize(rotation_.size());
    const uint32_t picked = PickUpTo(now, width, out->data(), unpicked_min);
    out->resize(picked);
  }

  // Array flavor of the same pick (no vector bookkeeping): `out` must hold
  // at least rotation-size slots; returns the pick count. This is the form
  // Core::Cycle calls every simulated tick.
  uint32_t PickUpTo(Tick now, uint32_t width, HwThread** out, Tick* unpicked_min = nullptr) {
    uint32_t picked = 0;
    Tick umin = std::numeric_limits<Tick>::max();
    const size_t n = rotation_.size();
    if (n == 0) {
      if (unpicked_min != nullptr) {
        *unpicked_min = umin;
      }
      return 0;
    }
    // One pass from the cursor: the first ready thread found becomes the new
    // cursor (the weighted-RR head), and ready threads fill the SMT slots in
    // rotation order as the same scan continues. This merges what used to be
    // two walks (cursor advance, then fill) into one — picks are identical
    // because the skipped prefix holds no ready threads by definition, so the
    // fill scan could never have collected anything there. Index wrap is a
    // compare, not a modulo: this runs every simulated tick.
    size_t idx = cursor_;
    bool found = false;
    bool full = false;
    for (size_t s = 0; s < n; s++) {
      HwThread* t = rotation_[idx].thread;
      const bool runnable = t->state() == ThreadState::kRunnable;
      if (runnable && t->ready_at() <= now && !full) {
        if (!found) {
          found = true;
          cursor_ = idx;
        }
        out[picked++] = t;
        if (picked == width) {
          if (unpicked_min == nullptr) {
            break;
          }
          full = true;
        }
      } else if (runnable) {
        umin = std::min(umin, t->ready_at());
      }
      if (++idx == n) {
        idx = 0;
      }
    }
    if (unpicked_min != nullptr) {
      *unpicked_min = umin;
    }
    if (!found) {
      return 0;  // nothing ready this cycle; cursor unchanged, no credit burn
    }
    // Weighted RR: the head thread holds the cursor for `prio` picks.
    Slot& head = rotation_[cursor_];
    if (head.credits > 0) {
      head.credits--;
    }
    if (head.credits == 0) {
      head.credits = FullCredits(*head.thread);
      if (++cursor_ == n) {
        cursor_ = 0;
      }
    }
    return picked;
  }

  // Applies `k` >= 1 consecutive picks from tick `at` on in which the same
  // threads are ready at every pick (those runnable with ready_at <= `at`;
  // at least one) and they all fit an SMT slot (Core's quiet ticks): the
  // cursor and credit moves of k PickUpTo calls, in closed form. Writes the
  // last pick's order (the ready threads in rotation order from that pick's
  // cursor) to `out` and returns their count.
  //
  // As in PickUpTo, each turn starts at the first ready slot from the
  // cursor, and a handoff may leave the cursor on a slot that is not ready;
  // such slots keep their credits. Once every ready slot has handed the
  // cursor on, all their credits are full and the picks repeat with period
  // sum(FullCredits) over the ready slots, so k shrinks modulo it. Not
  // before: a slot the cursor once skipped while it was not ready may still
  // hold partial credits.
  uint32_t PickAllFor(uint64_t k, Tick at, HwThread** out);

  bool Empty() const { return rotation_.empty(); }
  size_t Size() const { return rotation_.size(); }
  // The i-th thread in rotation order (not from the cursor), i < Size().
  HwThread* thread_at(size_t i) const { return rotation_[i].thread; }

  // Bumped by every Add/Remove call (even ones that turn out to be no-ops):
  // an unchanged generation across a stretch of Steps guarantees that no
  // thread outside the picked set changed its scheduling state, because
  // every wake (MakeRunnable), block (Mwait), and stop/disable path calls
  // Add or Remove. Core::Cycle uses this to validate the single-scan
  // next-work-tick reconstruction.
  uint64_t generation() const { return generation_; }

  // Earliest tick >= `after` at which some runnable thread can issue; Tick
  // max if the rotation holds no runnable threads.
  Tick NextWorkTick(Tick after) const {
    Tick best = std::numeric_limits<Tick>::max();
    for (const Slot& s : rotation_) {
      if (s.thread->state() == ThreadState::kRunnable) {
        best = std::min(best, std::max(s.thread->ready_at(), after));
      }
    }
    return best;
  }

 private:
  struct Slot {
    HwThread* thread;
    uint64_t credits;  // remaining consecutive picks this turn
  };

  static uint64_t FullCredits(const HwThread& t) { return std::max<uint64_t>(1, t.arch().prio); }

  std::vector<Slot> rotation_;
  size_t cursor_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace casc

#endif  // SRC_HWT_SCHED_QUEUE_H_
