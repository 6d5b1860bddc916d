#include "src/hwt/sched_queue.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace casc {

void SchedQueue::Add(HwThread* thread, bool front) {
  assert(thread != nullptr);
  generation_++;  // conservatively also on the already-queued early return
  for (const Slot& s : rotation_) {
    if (s.thread->ptid() == thread->ptid()) {
      return;  // already queued
    }
  }
  const Slot slot{thread, FullCredits(*thread)};
  if (front && cursor_ <= rotation_.size()) {
    rotation_.insert(rotation_.begin() + static_cast<ptrdiff_t>(cursor_), slot);
  } else {
    rotation_.push_back(slot);
  }
}

void SchedQueue::Remove(Ptid ptid) {
  generation_++;
  for (size_t i = 0; i < rotation_.size(); i++) {
    if (rotation_[i].thread->ptid() == ptid) {
      rotation_.erase(rotation_.begin() + static_cast<ptrdiff_t>(i));
      if (cursor_ > i) {
        cursor_--;
      }
      if (cursor_ >= rotation_.size()) {
        cursor_ = 0;
      }
      return;
    }
  }
}

uint32_t SchedQueue::PickAllFor(uint64_t k, Tick at, HwThread** out) {
  assert(k > 0 && !rotation_.empty());
  const size_t n = rotation_.size();
  auto ready = [at](const Slot& s) {
    return s.thread->state() == ThreadState::kRunnable && s.thread->ready_at() <= at;
  };
  const size_t nready =
      static_cast<size_t>(std::count_if(rotation_.begin(), rotation_.end(), ready));
  assert(nready > 0);
  // Each round below is one head's turn: the cursor moves to the first ready
  // slot, which takes max(1, credits) picks (a pick burns one credit; the
  // last one refills the slot and moves the cursor on), or the remaining k
  // if fewer.
  size_t head = cursor_;  // cursor of the last pick applied
  size_t handoffs = 0;
  while (k > 0) {
    if (handoffs == nready) {
      uint64_t period = 0;
      for (const Slot& s : rotation_) {
        period += ready(s) ? FullCredits(*s.thread) : 0;
      }
      k %= period;  // state after a whole period is the state now
      handoffs++;   // reduce once
      if (k == 0) {
        break;  // `head` already names the last handoff's slot
      }
    }
    while (!ready(rotation_[cursor_])) {
      if (++cursor_ == n) {
        cursor_ = 0;
      }
    }
    Slot& s = rotation_[cursor_];
    const uint64_t credits = std::max<uint64_t>(1, s.credits);
    head = cursor_;
    if (k < credits) {
      s.credits = credits - k;
      break;
    }
    k -= credits;
    s.credits = FullCredits(*s.thread);
    if (++cursor_ == n) {
      cursor_ = 0;
    }
    handoffs++;
  }
  uint32_t picked = 0;
  for (size_t i = 0, idx = head; i < n; i++) {
    if (ready(rotation_[idx])) {
      out[picked++] = rotation_[idx].thread;
    }
    if (++idx == n) {
      idx = 0;
    }
  }
  return picked;
}

}  // namespace casc
