// Unit tests for the simulation kernel: event queue ordering/cancellation,
// histogram accuracy, RNG distribution sanity, and config parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/event_queue.h"
#include "src/sim/json.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"

namespace casc {
namespace {

// Distance of a "far" schedule: beyond every in-flight latency the simulator
// charges (cache misses, IPIs, context restores), where long timers sit.
constexpr Tick kFar = 4096;

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleFn(30, [&] { order.push_back(3); });
  q.ScheduleFn(10, [&] { order.push_back(1); });
  q.ScheduleFn(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, SameTickIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; i++) {
    q.ScheduleFn(5, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, ReusableEventRescheduleAndCancel) {
  EventQueue q;
  int fired = 0;
  LambdaEvent ev([&] { fired++; });
  q.Schedule(&ev, 10);
  EXPECT_TRUE(ev.scheduled());
  q.Schedule(&ev, 20);  // reschedule supersedes the earlier entry
  q.RunUntil(15);
  EXPECT_EQ(fired, 0);
  q.RunUntil(25);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(ev.scheduled());

  q.Schedule(&ev, 30);
  q.Deschedule(&ev);
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, EventCanRescheduleItself) {
  EventQueue q;
  int fired = 0;
  Event* self = nullptr;
  LambdaEvent ev([&] {
    fired++;
    if (fired < 5) {
      q.ScheduleAfter(self, 7);
    }
  });
  self = &ev;
  q.Schedule(&ev, 0);
  q.RunAll();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 28u);
}

TEST(EventQueueTest, NextTickSkipsCancelled) {
  EventQueue q;
  LambdaEvent a([] {});
  q.Schedule(&a, 5);
  q.ScheduleFn(9, [] {});
  q.Deschedule(&a);
  EXPECT_EQ(q.NextTick(), 9u);
  EXPECT_EQ(q.LiveCount(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesNowWithoutEvents) {
  EventQueue q;
  q.RunUntil(100);
  EXPECT_EQ(q.now(), 100u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, ScheduleFromWithinCallback) {
  EventQueue q;
  int late = 0;
  q.ScheduleFn(1, [&] { q.ScheduleFn(4, [&] { late = static_cast<int>(q.now()); }); });
  q.RunAll();
  EXPECT_EQ(late, 4);
}

TEST(EventQueueTest, DescheduleOfPendingEventThenReschedule) {
  EventQueue q;
  int fired = 0;
  LambdaEvent ev([&] { fired++; });
  q.Schedule(&ev, 10);
  q.Deschedule(&ev);
  EXPECT_FALSE(ev.scheduled());
  q.RunUntil(20);
  EXPECT_EQ(fired, 0);
  // The object is immediately reusable after cancellation.
  q.Schedule(&ev, 25);
  q.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 25u);
}

TEST(EventQueueTest, RescheduleWhilePendingMovesBothDirections) {
  EventQueue q;
  std::vector<Tick> fired_at;
  LambdaEvent ev([&] { fired_at.push_back(q.now()); });
  // Near -> far: the near entry goes stale, the far entry is live.
  q.Schedule(&ev, 10);
  q.Schedule(&ev, kFar + 500);
  q.RunUntil(100);
  EXPECT_TRUE(fired_at.empty());
  q.RunAll();
  ASSERT_EQ(fired_at.size(), 1u);
  EXPECT_EQ(fired_at[0], kFar + 500);
  // Far -> near: the far entry goes stale, the near entry is live. The
  // stale far entry must neither fire nor drag now() forward.
  const Tick base = q.now();
  q.Schedule(&ev, base + kFar + 500);
  q.Schedule(&ev, base + 3);
  q.RunAll();
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_EQ(fired_at[1], base + 3);
  EXPECT_EQ(q.now(), base + 3);
}

TEST(EventQueueTest, FarFutureSchedulingFiresInOrder) {
  EventQueue q;
  std::vector<int> order;
  const Tick far = 3 * kFar + 7;
  q.ScheduleFn(far, [&] { order.push_back(2); });
  q.ScheduleFn(far + 1, [&] { order.push_back(3); });
  q.ScheduleFn(5, [&] { order.push_back(1); });
  EXPECT_EQ(q.NextTick(), 5u);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), far + 1);
}

TEST(EventQueueTest, FarAndNearSchedulesForOneTickKeepFifo) {
  // An entry scheduled while its tick was far off and one scheduled for the
  // same tick once it is near must fire in schedule order.
  EventQueue q;
  std::vector<int> order;
  const Tick t = kFar + 10;
  q.ScheduleFn(t, [&] { order.push_back(1); });  // far at schedule time
  q.RunUntil(t - 1);
  q.ScheduleFn(t, [&] { order.push_back(2); });  // near at schedule time
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, RunUntilCrossesLongEmptySpans) {
  EventQueue q;
  int fired = 0;
  q.ScheduleFn(3, [&] { fired++; });
  q.RunAll();
  // Jump now() across a long span with nothing scheduled.
  const Tick target = 10 * kFar + 123;
  q.RunUntil(target);
  EXPECT_EQ(q.now(), target);
  EXPECT_TRUE(q.Empty());
  // Near and far schedules still fire at their ticks after the jump.
  q.ScheduleFn(target + 2, [&] { fired++; });
  q.ScheduleFn(target + kFar + 2, [&] { fired++; });
  q.RunAll();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.now(), target + kFar + 2);
}

TEST(EventQueueTest, RepeatedRescheduleKeepsStorageBounded) {
  // Regression: every reschedule/cancel leaves a dead entry behind, and these
  // used to accumulate until a full drain. Compaction must keep internal
  // storage proportional to the live population.
  EventQueue q;
  LambdaEvent ev([] {});
  for (Tick t = 1; t <= 10000; t++) {
    q.Schedule(&ev, t);  // every earlier entry goes stale
  }
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_LT(q.InternalEntryCount(), 256u);
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_EQ(q.now(), 10000u);
  EXPECT_FALSE(ev.scheduled());

  // Schedule/cancel churn with zero live survivors is also bounded.
  LambdaEvent other([] {});
  for (int i = 0; i < 10000; i++) {
    q.Schedule(&other, q.now() + 1 + (i % 100));
    q.Deschedule(&other);
  }
  EXPECT_EQ(q.LiveCount(), 0u);
  EXPECT_LT(q.InternalEntryCount(), 256u);

  // Firing the live population must not strand the dead entries either:
  // 70 one-shots beside 68 stale reschedules that all lie behind the live
  // one, then every one-shot fires.
  EventQueue q2;
  for (Tick t = 1; t <= 70; t++) {
    q2.ScheduleFn(t, [] {});
  }
  for (Tick t = 0; t < 69; t++) {
    q2.Schedule(&ev, 2000 - t);
  }
  q2.RunUntil(70);
  EXPECT_EQ(q2.LiveCount(), 1u);
  EXPECT_LT(q2.InternalEntryCount(), 64u);
}

TEST(EventQueueTest, RandomizedDifferentialAgainstReferenceModel) {
  // Drive the queue with random schedules/cancels/runs and check every fire
  // against a brute-force reference model ordered by (when, schedule-seq).
  // Every kSpawnEvery-th one-shot, while it fires, schedules a child one-shot
  // and reschedules a pool event, so a callback slot freed by the firing
  // entry is reused while that entry's callback is still running. Half the
  // pool events are lanes, and half the random ticks snap to a coarse grid,
  // so lanes, heap events and one-shots often share a tick and their
  // relative order rests on the schedule sequence alone.
  EventQueue q;
  Rng rng(2026);
  std::vector<int> got;
  std::vector<int> want;

  struct Ref {
    Tick when;
    uint64_t seq;
    int id;
  };
  std::vector<Ref> ref;  // live entries in the reference model
  uint64_t next_seq = 0;
  Tick model_now = 0;
  int next_id = 0;

  constexpr int kPool = 6;   // reusable events; slot i fires id 1000000 + i
  constexpr int kLanes = 3;  // pool slots [0, kLanes) are lanes
  std::vector<std::unique_ptr<LambdaEvent<std::function<void()>>>> pool;
  for (int i = 0; i < kPool; i++) {
    pool.push_back(std::make_unique<LambdaEvent<std::function<void()>>>(
        [&got, i] { got.push_back(1000000 + i); }));
    if (i < kLanes) {
      q.RegisterLane(pool.back().get());
    }
  }
  // A tick up to `span` past model_now; half the time rounded up to a
  // multiple of kGrid, which makes same-tick collisions common.
  constexpr Tick kGrid = 256;
  auto draw_when = [&](Tick span) {
    const Tick when = model_now + rng.NextBounded(span);
    return rng.NextBounded(2) == 0 ? when : when + (kGrid - when % kGrid) % kGrid;
  };
  // A spawning one-shot `id` firing at `now` schedules child 2000000 + id at
  // now + id % 7, then reschedules pool event id % kPool to now + (id % 13) * 97.
  constexpr int kSpawnEvery = 5;
  auto one_shot = [&](int id) -> std::function<void()> {
    return [&got, &q, &pool, id] {
      got.push_back(id);
      if (id % kSpawnEvery == 0) {
        q.ScheduleFn(q.now() + id % 7, [&got, id] { got.push_back(2000000 + id); });
        q.Schedule(pool[id % kPool].get(), q.now() + (id % 13) * 97);
      }
    };
  };
  auto ref_min = [&]() -> size_t {
    size_t best = SIZE_MAX;
    for (size_t j = 0; j < ref.size(); j++) {
      if (best == SIZE_MAX || ref[j].when < ref[best].when ||
          (ref[j].when == ref[best].when && ref[j].seq < ref[best].seq)) {
        best = j;
      }
    }
    return best;
  };
  auto ref_erase_slot = [&](int i) {
    for (size_t j = 0; j < ref.size(); j++) {
      if (ref[j].id == 1000000 + i) {
        ref.erase(ref.begin() + j);
        return;
      }
    }
  };
  auto ref_fire = [&](size_t j) {
    const Ref r = ref[j];
    ref.erase(ref.begin() + j);
    want.push_back(r.id);
    if (r.id < 1000000 && r.id % kSpawnEvery == 0) {
      ref.push_back({r.when + r.id % 7, next_seq++, 2000000 + r.id});
      ref_erase_slot(r.id % kPool);
      ref.push_back({r.when + (r.id % 13) * 97, next_seq++, 1000000 + r.id % kPool});
    }
  };

  for (int step = 0; step < 4000; step++) {
    const uint64_t op = rng.NextBounded(100);
    if (op < 40) {
      const Tick when = draw_when(3 * kFar);
      const int id = next_id++;
      ref.push_back({when, next_seq++, id});
      q.ScheduleFn(when, one_shot(id));
    } else if (op < 60) {
      // A burst of reschedules leaves dead entries behind for compaction.
      const int i = static_cast<int>(rng.NextBounded(kPool));
      for (uint64_t n = 1 + rng.NextBounded(32); n > 0; n--) {
        const Tick when = draw_when(3 * kFar);
        ref_erase_slot(i);  // a reschedule supersedes the earlier entry
        ref.push_back({when, next_seq++, 1000000 + i});
        q.Schedule(pool[i].get(), when);
      }
    } else if (op < 70) {
      const int i = static_cast<int>(rng.NextBounded(kPool));
      ref_erase_slot(i);
      q.Deschedule(pool[i].get());
    } else if (op < 85) {
      const size_t j = ref_min();
      if (j == SIZE_MAX) {
        EXPECT_FALSE(q.RunOne());
      } else {
        model_now = ref[j].when;
        ref_fire(j);
        EXPECT_TRUE(q.RunOne());
        EXPECT_EQ(q.now(), model_now);
      }
    } else {
      const Tick limit = model_now + rng.NextBounded(2 * kFar);
      for (;;) {
        const size_t j = ref_min();
        if (j == SIZE_MAX || ref[j].when > limit) {
          break;
        }
        ref_fire(j);
      }
      model_now = std::max(model_now, limit);
      q.RunUntil(limit);
      EXPECT_EQ(q.now(), model_now);
    }
    ASSERT_EQ(got, want) << "diverged at step " << step;
    ASSERT_EQ(q.LiveCount(), ref.size()) << "at step " << step;
    const size_t j = ref_min();
    ASSERT_EQ(q.NextTick(), j == SIZE_MAX ? std::numeric_limits<Tick>::max() : ref[j].when)
        << "at step " << step;
    // Compaction keeps dead entries from outnumbering live ones past 64.
    ASSERT_LE(q.InternalEntryCount(), std::max<size_t>(63, 2 * q.LiveCount()))
        << "at step " << step;
  }
  q.RunAll();
  for (;;) {
    const size_t j = ref_min();
    if (j == SIZE_MAX) {
      break;
    }
    ref_fire(j);
  }
  EXPECT_EQ(got, want);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, LaneAndHeapEventsKeepSameTickFifo) {
  // A lane takes no heap entry, but its key comes from the same schedule
  // sequence: same-tick events fire in schedule order whichever side they
  // live on, in both schedule orders, and between two lanes.
  for (const bool lane_first : {true, false}) {
    EventQueue q;
    std::vector<int> order;
    LambdaEvent lane([&] { order.push_back(1); });
    LambdaEvent heap([&] { order.push_back(2); });
    q.RegisterLane(&lane);
    if (lane_first) {
      q.Schedule(&lane, 10);
      q.Schedule(&heap, 10);
      q.ScheduleFn(10, [&] { order.push_back(3); });
    } else {
      q.Schedule(&heap, 10);
      q.ScheduleFn(10, [&] { order.push_back(3); });
      q.Schedule(&lane, 10);
    }
    q.RunAll();
    const std::vector<int> expected =
        lane_first ? std::vector<int>{1, 2, 3} : std::vector<int>{2, 3, 1};
    EXPECT_EQ(order, expected) << "lane_first=" << lane_first;
  }
  EventQueue q;
  std::vector<int> order;
  LambdaEvent a([&] { order.push_back(1); });
  LambdaEvent b([&] { order.push_back(2); });
  q.RegisterLane(&a);
  q.RegisterLane(&b);
  q.Schedule(&b, 5);  // the later-registered lane is scheduled first
  q.Schedule(&a, 5);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(q.events_fired(), 2u);  // lane fires count as dispatches
}

TEST(EventQueueTest, LaneRescheduleAndDeschedule) {
  EventQueue q;
  std::vector<std::pair<Tick, int>> log;
  LambdaEvent lane([&] { log.emplace_back(q.now(), 1); });
  q.RegisterLane(&lane);
  // Earlier: the lane moves ahead of a heap event it used to follow.
  q.Schedule(&lane, 50);
  q.ScheduleFn(30, [&] { log.emplace_back(q.now(), 2); });
  q.Schedule(&lane, 20);
  EXPECT_EQ(lane.when(), 20u);
  // Later: the lane moves behind a heap event it used to precede.
  q.ScheduleFn(60, [&] {
    log.emplace_back(q.now(), 3);
    q.Schedule(&lane, 70);
    q.ScheduleFn(80, [&] { log.emplace_back(q.now(), 4); });
    q.Schedule(&lane, 90);
  });
  q.RunAll();
  const std::vector<std::pair<Tick, int>> expected = {
      {20, 1}, {30, 2}, {60, 3}, {80, 4}, {90, 1}};
  EXPECT_EQ(log, expected);
  EXPECT_FALSE(lane.scheduled());
  // Deschedule: the lane never fires, and is reusable afterwards.
  q.Schedule(&lane, 100);
  q.Deschedule(&lane);
  q.Deschedule(&lane);  // safe on an unscheduled lane
  EXPECT_FALSE(lane.scheduled());
  EXPECT_TRUE(q.Empty());
  q.RunAll();
  EXPECT_EQ(log.size(), expected.size());
  q.Schedule(&lane, 110);
  q.RunAll();
  EXPECT_EQ(log.back(), (std::pair<Tick, int>{110, 1}));
}

TEST(EventQueueTest, NextTickAndLiveCountIncludeLanes) {
  EventQueue q;
  LambdaEvent lane([] {});
  q.RegisterLane(&lane);
  EXPECT_EQ(q.NextTick(), std::numeric_limits<Tick>::max());
  q.Schedule(&lane, 7);
  EXPECT_EQ(q.NextTick(), 7u);
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_FALSE(q.Empty());
  q.ScheduleFn(5, [] {});
  EXPECT_EQ(q.NextTick(), 5u);
  EXPECT_EQ(q.LiveCount(), 2u);
  q.Schedule(&lane, 3);  // a reschedule is not a second live event
  EXPECT_EQ(q.NextTick(), 3u);
  EXPECT_EQ(q.LiveCount(), 2u);
  q.Deschedule(&lane);
  EXPECT_EQ(q.NextTick(), 5u);
  EXPECT_EQ(q.LiveCount(), 1u);
  q.RunAll();
  EXPECT_TRUE(q.Empty());
  // A past tick clamps to now(), as on the heap.
  q.RunUntil(100);
  q.Schedule(&lane, 40);
  EXPECT_EQ(lane.when(), 100u);
  EXPECT_EQ(q.NextTick(), 100u);
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(q.now(), 100u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, AdvanceIfIdleStopsAtLaneTick) {
  // A scheduled lane is a live event to the quiet-advance check: an actor
  // may run up to just before its tick but not onto it, and a lane armed
  // mid-chain lowers the bound at once.
  EventQueue q;
  std::vector<std::pair<Tick, int>> log;
  LambdaEvent lane([&] { log.emplace_back(q.now(), 1); });
  q.RegisterLane(&lane);
  bool before_ok = false;
  bool at_ok = true;
  bool armed_blocks = true;
  bool up_to_armed = false;
  q.Schedule(&lane, 50);
  q.ScheduleFn(10, [&] {
    before_ok = q.AdvanceIfIdle(49);
    at_ok = q.AdvanceIfIdle(50);
    log.emplace_back(q.now(), 2);
  });
  q.ScheduleFn(60, [&] {
    q.Schedule(&lane, 80);
    armed_blocks = q.AdvanceIfIdle(90);
    up_to_armed = q.AdvanceIfIdle(79);
    log.emplace_back(q.now(), 3);
  });
  q.RunAll();
  EXPECT_TRUE(before_ok);
  EXPECT_FALSE(at_ok);
  EXPECT_FALSE(armed_blocks);
  EXPECT_TRUE(up_to_armed);
  const std::vector<std::pair<Tick, int>> expected = {{49, 2}, {50, 1}, {79, 3}, {80, 1}};
  EXPECT_EQ(log, expected);
}

TEST(EventQueueTest, LaneRescheduleAddsNoHeapEntries) {
  EventQueue q;
  LambdaEvent lane([] {});
  q.RegisterLane(&lane);
  q.ScheduleFn(20000, [] {});
  for (Tick t = 1; t <= 10000; t++) {
    q.Schedule(&lane, t);
    EXPECT_EQ(q.InternalEntryCount(), 1u);
  }
  for (int i = 0; i < 1000; i++) {
    q.Deschedule(&lane);
    q.Schedule(&lane, q.now() + 1 + i);
  }
  EXPECT_EQ(q.InternalEntryCount(), 1u);
  EXPECT_EQ(q.LiveCount(), 2u);
  EXPECT_EQ(q.RunAll(), 2u);
}

// A lane with quiet ticks: it reschedules itself every tick up to `last`,
// and ticks before `quiet_end` are quiet. Quiet ticks are only counted, so
// a one-tick run (which fires them) and a bulk run (which advances over
// them) leave the same log.
class QuietLane final : public Event {
 public:
  QuietLane(EventQueue& q, std::vector<std::pair<Tick, int>>& log, int id, Tick quiet_end,
            Tick last)
      : q_(q), log_(log), id_(id), quiet_end_(quiet_end), last_(last) {}

  void Fire() override {
    ticks++;
    if (q_.now() >= quiet_end_) {
      log_.emplace_back(q_.now(), id_);
    }
    if (q_.now() < last_) {
      q_.Schedule(this, q_.now() + 1);
    }
  }
  Tick QuietUntil() const override { return std::max(when(), quiet_end_); }
  void AdvanceQuiet(Tick from, Tick to) override {
    EXPECT_LE(to, quiet_end_);
    spans.emplace_back(from, to);
    ticks += to - from;
  }

  uint64_t ticks = 0;
  std::vector<std::pair<Tick, Tick>> spans;  // AdvanceQuiet calls

 private:
  EventQueue& q_;
  std::vector<std::pair<Tick, int>>& log_;
  int id_;
  Tick quiet_end_;
  Tick last_;
};

TEST(EventQueueTest, QuietLaneBulkStepStopsAtHeapTopLaneAndLimit) {
  using Spans = std::vector<std::pair<Tick, Tick>>;
  std::vector<std::pair<Tick, int>> log;
  {
    // The live heap top: the step ends at its tick, and the heap event (keyed
    // first) still fires there before the re-keyed lane.
    EventQueue q;
    QuietLane a(q, log, 1, /*quiet_end=*/1000, /*last=*/1000);
    q.RegisterLane(&a);
    q.Schedule(&a, 10);
    Tick lane_at_heap = 0;
    q.ScheduleFn(50, [&] {
      log.emplace_back(q.now(), 2);
      lane_at_heap = a.when();
    });
    q.RunUntil(100);
    EXPECT_EQ(a.spans, (Spans{{10, 50}, {50, 101}}));
    EXPECT_EQ(lane_at_heap, 50u);
    EXPECT_EQ(a.ticks, 91u);
    // RunUntil ends at exactly its limit, the lane keyed just past it.
    EXPECT_EQ(q.now(), 100u);
    EXPECT_EQ(a.when(), 101u);
    EXPECT_EQ(q.events_fired(), 3u);  // bulk, heap event, bulk
  }
  {
    // A lane that is not quiet at its tick ends the step there, and fires
    // ahead of the lane stepped up to it; once it is gone, the next step
    // runs to the limit.
    EventQueue q;
    log.clear();
    QuietLane a(q, log, 1, 1000, 40);
    QuietLane b(q, log, 2, /*quiet_end=*/0, /*last=*/30);
    q.RegisterLane(&a);
    q.RegisterLane(&b);
    q.Schedule(&a, 10);
    q.Schedule(&b, 30);
    q.RunUntil(40);
    EXPECT_EQ(a.spans, (Spans{{10, 30}, {30, 41}}));
    EXPECT_TRUE(b.spans.empty());
    EXPECT_EQ(log, (std::vector<std::pair<Tick, int>>{{30, 2}}));
    EXPECT_EQ(a.ticks, 31u);
  }
  {
    // The lane's own first non-quiet tick: it fires there normally.
    EventQueue q;
    log.clear();
    QuietLane a(q, log, 1, /*quiet_end=*/25, /*last=*/26);
    q.RegisterLane(&a);
    q.Schedule(&a, 10);
    q.RunAll();
    EXPECT_EQ(a.spans, (Spans{{10, 25}}));
    EXPECT_EQ(log, (std::vector<std::pair<Tick, int>>{{25, 1}, {26, 1}}));
    EXPECT_EQ(q.now(), 26u);
    EXPECT_EQ(q.events_fired(), 3u);
  }
}

TEST(EventQueueTest, RunOneNeverTakesABulkStep) {
  EventQueue q;
  std::vector<std::pair<Tick, int>> log;
  QuietLane a(q, log, 1, 1000, 1000);
  QuietLane b(q, log, 2, 1000, 1000);
  q.RegisterLane(&a);
  q.RegisterLane(&b);
  q.Schedule(&a, 10);
  q.Schedule(&b, 10);
  for (int i = 0; i < 10; i++) {
    EXPECT_TRUE(q.RunOne());
  }
  EXPECT_TRUE(a.spans.empty());
  EXPECT_TRUE(b.spans.empty());
  EXPECT_EQ(a.ticks, 5u);
  EXPECT_EQ(b.ticks, 5u);
  EXPECT_EQ(q.now(), 14u);
  EXPECT_EQ(q.events_fired(), 10u);
}

TEST(EventQueueTest, QuietLaneRekeyOrderMatchesOneTickStepping) {
  // Four quiet lanes become due at two ticks and are stepped to x = 40 in
  // one step. One-tick stepping leaves them keyed at 40 by old tick
  // descending, then old sequence ascending; a lane and a heap event keyed
  // at 40 before the step fire ahead of all four.
  struct Run {
    std::vector<std::pair<Tick, int>> log;
    uint64_t fired = 0;
    size_t live = 0;
    Tick next = 0;
    size_t entries = 0;
  };
  auto run = [](bool bulk) {
    EventQueue q;
    Run r;
    std::vector<std::unique_ptr<QuietLane>> lanes;
    for (int id = 1; id <= 5; id++) {
      lanes.push_back(std::make_unique<QuietLane>(q, r.log, id, /*quiet_end=*/40, /*last=*/41));
      q.RegisterLane(lanes.back().get());
    }
    q.Schedule(lanes[4].get(), 40);  // id 5: keyed at x before the step
    q.ScheduleFn(40, [&] { r.log.emplace_back(q.now(), 0); });
    q.Schedule(lanes[1].get(), 20);  // id 2
    q.Schedule(lanes[2].get(), 20);  // id 3
    q.Schedule(lanes[0].get(), 10);  // id 1
    q.Schedule(lanes[3].get(), 10);  // id 4
    q.ScheduleFn(45, [] {});
    if (bulk) {
      q.RunUntil(39);
      EXPECT_EQ(q.events_fired(), 1u);  // one bulk step, however many lanes
      EXPECT_EQ(q.now(), 39u);
      EXPECT_EQ(lanes[0]->spans, (std::vector<std::pair<Tick, Tick>>{{10, 40}}));
      EXPECT_EQ(lanes[1]->spans, (std::vector<std::pair<Tick, Tick>>{{20, 40}}));
    } else {
      while (q.NextTick() < 40) {
        q.RunOne();
      }
    }
    r.live = q.LiveCount();
    r.next = q.NextTick();
    r.entries = q.InternalEntryCount();
    q.RunAll();
    r.fired = q.events_fired();
    return r;
  };
  const Run bulk = run(true);
  const Run ref = run(false);
  const std::vector<std::pair<Tick, int>> expected = {
      {40, 5}, {40, 0}, {40, 2}, {40, 3}, {40, 1}, {40, 4},
      {41, 5}, {41, 2}, {41, 3}, {41, 1}, {41, 4}};
  EXPECT_EQ(bulk.log, expected);
  EXPECT_EQ(ref.log, expected);
  // Every lane is still one live event, no heap entry was added, and the
  // heap events at 40 and 45 stayed live.
  EXPECT_EQ(bulk.live, 7u);
  EXPECT_EQ(bulk.live, ref.live);
  EXPECT_EQ(bulk.next, 40u);
  EXPECT_EQ(ref.next, 40u);
  EXPECT_EQ(bulk.entries, 2u);
  EXPECT_EQ(bulk.entries, ref.entries);
  EXPECT_LT(bulk.fired, ref.fired);
}

TEST(EventQueueTest, SchedulePastTickClampsToNow) {
  // Past ticks must clamp to now() and fire on the next dispatch; the
  // clock never runs backwards.
  EventQueue q;
  q.RunUntil(100);
  int fired = 0;
  LambdaEvent ev([&] { fired++; });
  q.Schedule(&ev, 40);  // 60 ticks in the past
  EXPECT_EQ(q.NextTick(), 100u);
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 100u);

  q.ScheduleFn(7, [&] { fired++; });  // one-shot path clamps identically
  EXPECT_EQ(q.NextTick(), 100u);
  q.RunAll();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueTest, ScheduleAfterSaturatesAtTickMax) {
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  EventQueue q;
  q.RunUntil(1000);
  // now + delta would wrap into the past; the sum must saturate instead.
  LambdaEvent ev([] {});
  q.ScheduleAfter(&ev, kMax - 10);
  EXPECT_TRUE(ev.scheduled());
  EXPECT_EQ(ev.when(), kMax);
  q.Deschedule(&ev);

  // Exact fit (no overflow) lands on kMax without clamping side effects.
  LambdaEvent ev2([] {});
  q.ScheduleAfter(&ev2, kMax - 1000);
  EXPECT_EQ(ev2.when(), kMax);
  q.Deschedule(&ev2);

  int fired = 0;
  q.ScheduleFnAfter(kMax, [&] { fired++; });
  EXPECT_EQ(q.NextTick(), kMax);  // live at the top of tick space, not wrapped
  q.RunUntil(kMax);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), kMax);
}

TEST(EventQueueTest, AdvanceIfIdleNeverCrossesRunLimit) {
  // RunFor(x) must hand control back at exactly x: a core's quiet-advance
  // stops at the innermost run limit instead of sliding past it.
  EventQueue q;
  bool within = false;
  bool beyond = true;
  q.ScheduleFn(50, [&] {
    within = q.AdvanceIfIdle(90);   // inside the limit: allowed
    beyond = q.AdvanceIfIdle(150);  // would cross RunUntil(100): refused
  });
  q.RunUntil(100);
  EXPECT_TRUE(within);
  EXPECT_FALSE(beyond);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueTest, AdvanceLimitRestoredAcrossNestedRuns) {
  EventQueue q;
  bool inner_ok = false;
  bool outer_ok = false;
  bool outer_blocked = false;
  q.ScheduleFn(10, [&] {
    // A nested windowed run imposes its own tighter ceiling...
    q.ScheduleFn(20, [&] { inner_ok = q.AdvanceIfIdle(30); });
    q.RunWhile(40, [] { return true; });
    // ...and the outer ceiling must be back in force on return.
    outer_ok = q.AdvanceIfIdle(80);
    outer_blocked = !q.AdvanceIfIdle(200);
  });
  q.RunUntil(100);
  EXPECT_TRUE(inner_ok);
  EXPECT_TRUE(outer_ok);
  EXPECT_TRUE(outer_blocked);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueTest, AdvanceIfIdleRunsUpToLaterLiveEvent) {
  // A live event further out does not block the fast path: the actor may
  // take every tick strictly before it in place, and the event still fires
  // at its own tick afterwards.
  EventQueue q;
  std::vector<std::pair<Tick, int>> log;
  bool ok = false;
  q.ScheduleFn(100, [&] { log.emplace_back(q.now(), 2); });
  q.ScheduleFn(10, [&] {
    ok = q.AdvanceIfIdle(99);
    log.emplace_back(q.now(), 1);
  });
  q.RunAll();
  EXPECT_TRUE(ok);
  const std::vector<std::pair<Tick, int>> expected = {{99, 1}, {100, 2}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(q.events_fired(), 2u);
}

TEST(EventQueueTest, AdvanceIfIdleRefusesAtLiveEventTick) {
  // A live event at exactly `t` was scheduled before the actor's tick would
  // be, so it must fire first: the fast path refuses and the actor's own
  // schedule lands behind it in FIFO order.
  EventQueue q;
  std::vector<std::pair<Tick, int>> log;
  LambdaEvent tick([&] { log.emplace_back(q.now(), 1); });
  bool before_ok = false;
  bool at_ok = true;
  q.ScheduleFn(50, [&] { log.emplace_back(q.now(), 2); });
  q.ScheduleFn(10, [&] {
    before_ok = q.AdvanceIfIdle(49);
    at_ok = q.AdvanceIfIdle(50);
    q.Schedule(&tick, 50);
  });
  q.RunAll();
  EXPECT_TRUE(before_ok);
  EXPECT_FALSE(at_ok);
  const std::vector<std::pair<Tick, int>> expected = {{50, 2}, {50, 1}};
  EXPECT_EQ(log, expected);
}

TEST(EventQueueTest, AdvanceIfIdleKeepsSameTickFifoForFarEntry) {
  // An in-place advance up to just before a far entry's tick must not let a
  // later schedule for that same tick overtake it.
  EventQueue q;
  std::vector<int> log;
  const Tick far = 2 * kFar;
  q.ScheduleFn(far, [&] { log.push_back(1); });  // far at schedule time
  q.ScheduleFn(10, [&] {
    ASSERT_TRUE(q.AdvanceIfIdle(far - 100));
    q.ScheduleFn(far, [&] { log.push_back(2); });  // near, same tick
  });
  q.RunAll();
  const std::vector<int> expected = {1, 2};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(q.now(), far);
}

TEST(EventQueueTest, EarlierScheduleMidChainStopsQuietAdvance) {
  // The fast path checks a cached lower bound on the earliest live tick. A
  // new event earlier than that bound must lower it at once, and removing
  // the event must let the chain continue once the bound is recomputed.
  EventQueue q;
  LambdaEvent blocker([] {});
  bool first = false;
  bool blocked = true;
  bool up_to = false;
  bool resumed = false;
  q.ScheduleFn(1000, [] {});
  q.ScheduleFn(10, [&] {
    first = q.AdvanceIfIdle(20);
    q.Schedule(&blocker, 30);
    blocked = q.AdvanceIfIdle(40);
    up_to = q.AdvanceIfIdle(29);
    q.Deschedule(&blocker);
    resumed = q.AdvanceIfIdle(40);
  });
  q.RunAll();
  EXPECT_TRUE(first);
  EXPECT_FALSE(blocked);
  EXPECT_TRUE(up_to);
  EXPECT_TRUE(resumed);
  EXPECT_EQ(q.now(), 1000u);
}

// A per-tick actor like the core's tick event: logs each step, sometimes
// posts a near-future one-shot (as a core's store or wake does mid-chain),
// draws its next tick from the shared Rng, and either takes it in place via
// AdvanceIfIdle (`quiet`) or always schedules itself for it.
class SteppingActor final : public Event {
 public:
  SteppingActor(EventQueue& q, Rng& rng, std::vector<std::pair<Tick, int>>& log, int steps,
                Tick max_gap, bool quiet)
      : q_(q), rng_(rng), log_(log), remaining_(steps), max_gap_(max_gap), quiet_(quiet) {}

  void Fire() override {
    for (;;) {
      log_.emplace_back(q_.now(), -1);
      if (--remaining_ == 0) {
        return;
      }
      if (rng_.NextBounded(8) == 0) {
        q_.ScheduleFnAfter(1 + rng_.NextBounded(max_gap_),
                           [this] { log_.emplace_back(q_.now(), -2); });
      }
      const Tick next = q_.now() + 1 + rng_.NextBounded(max_gap_);
      if (!quiet_ || !q_.AdvanceIfIdle(next)) {
        q_.Schedule(this, next);
        return;
      }
    }
  }

 private:
  EventQueue& q_;
  Rng& rng_;
  std::vector<std::pair<Tick, int>>& log_;
  int remaining_;
  Tick max_gap_;
  bool quiet_;
};

TEST(EventQueueTest, WindowedExecutionMatchesMonolithicRun) {
  // Randomized differential: the same self-rescheduling event population run
  // (a) in one RunAll and (b) chopped into fixed RunWhile windows, with a
  // stepping actor among the random events that (c) quiet-advances wherever
  // the queue allows it instead of always scheduling. Firing order and every
  // draw from the data-dependent Rng must be identical across all four runs.
  constexpr Tick kWindow = 30;
  constexpr int kChains = 8;
  constexpr int kSteps = 200;
  struct Run {
    std::vector<std::pair<Tick, int>> log;
    uint64_t fired = 0;
  };
  auto run = [](bool windowed, bool quiet) {
    EventQueue q;
    Rng rng(0xC0FFEE);
    Run r;
    std::function<void(int, int)> arm = [&](int id, int remaining) {
      if (remaining == 0) {
        return;
      }
      q.ScheduleFnAfter(1 + rng.NextBounded(3 * kWindow), [&arm, &q, &r, id, remaining] {
        r.log.emplace_back(q.now(), id);
        arm(id, remaining - 1);
      });
    };
    for (int id = 0; id < kChains; id++) {
      arm(id, kSteps);
    }
    SteppingActor actor(q, rng, r.log, 2 * kSteps, /*max_gap=*/4, quiet);
    q.Schedule(&actor, 1);
    if (windowed) {
      while (!q.Empty()) {
        const Tick t = q.NextTick();
        q.RunWhile(t + kWindow - 1, [] { return true; });
      }
    } else {
      q.RunAll();
    }
    r.fired = q.events_fired();
    return r;
  };
  const Run base = run(false, false);
  EXPECT_EQ(base.log, run(true, false).log);
  const Run quiet = run(false, true);
  EXPECT_EQ(base.log, quiet.log);
  EXPECT_EQ(base.log, run(true, true).log);
  // The quiet actor really took ticks in place rather than always losing.
  EXPECT_LT(quiet.fired, base.fired);
}

TEST(HistogramTest, ExactForSmallValues) {
  Histogram h;
  for (uint64_t v = 0; v < 16; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_DOUBLE_EQ(h.mean(), 7.5);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 15u);
}

TEST(HistogramTest, QuantileBoundedRelativeError) {
  Histogram h;
  Rng rng(42);
  std::vector<uint64_t> vals;
  for (int i = 0; i < 100000; i++) {
    const uint64_t v = rng.NextRange(1, 1000000);
    vals.push_back(v);
    h.Record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const uint64_t exact = vals[static_cast<size_t>(q * (vals.size() - 1))];
    const uint64_t est = h.Quantile(q);
    const double rel = std::abs(static_cast<double>(est) - static_cast<double>(exact)) /
                       static_cast<double>(exact);
    EXPECT_LT(rel, 0.07) << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const uint64_t v = rng.NextRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, ParetoExceedsScale) {
  Rng rng(11);
  for (int i = 0; i < 1000; i++) {
    EXPECT_GE(rng.NextPareto(10.0, 2.0), 10.0);
  }
}

TEST(ConfigTest, ParsesTypedFlags) {
  const char* argv[] = {"prog", "--threads=64", "--load=0.8", "--name=htm", "--fast"};
  Config cfg;
  ASSERT_TRUE(cfg.ParseArgs(5, argv));
  EXPECT_EQ(cfg.GetInt("threads", 0), 64);
  EXPECT_DOUBLE_EQ(cfg.GetDouble("load", 0), 0.8);
  EXPECT_EQ(cfg.GetString("name"), "htm");
  EXPECT_TRUE(cfg.GetBool("fast", false));
  EXPECT_EQ(cfg.GetInt("missing", -3), -3);
}

TEST(ConfigTest, RejectsMalformed) {
  const char* argv[] = {"prog", "oops"};
  Config cfg;
  std::string err;
  EXPECT_FALSE(cfg.ParseArgs(2, argv, &err));
  EXPECT_NE(err.find("oops"), std::string::npos);
}

TEST(ConfigTest, MalformedValueReturnsDefaultAndRecordsError) {
  Config cfg;
  cfg.Set("threads", "12abc");  // trailing junk
  cfg.Set("load", "fast");      // not a number
  cfg.Set("size", "-5");        // must not wrap around to a huge uint
  EXPECT_EQ(cfg.GetInt("threads", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.GetDouble("load", 0.5), 0.5);
  EXPECT_EQ(cfg.GetUint("size", 9u), 9u);
  // Each failure is recorded once even when re-queried (the error path is
  // memoized too).
  EXPECT_EQ(cfg.GetInt("threads", 7), 7);
  ASSERT_EQ(cfg.parse_errors().size(), 3u);
  EXPECT_EQ(cfg.parse_errors()[0], "threads=12abc (int)");
  EXPECT_EQ(cfg.parse_errors()[1], "load=fast (double)");
  EXPECT_EQ(cfg.parse_errors()[2], "size=-5 (uint)");
}

TEST(ConfigTest, BoolAcceptsBothSpellingsAndRecordsTypos) {
  Config cfg;
  const char* on[] = {"true", "1", "yes", "on"};
  const char* off[] = {"false", "0", "no", "off"};
  for (const char* v : on) {
    cfg.Set("b", v);
    EXPECT_TRUE(cfg.GetBool("b", false)) << v;
  }
  for (const char* v : off) {
    cfg.Set("b", v);
    EXPECT_FALSE(cfg.GetBool("b", true)) << v;
  }
  EXPECT_TRUE(cfg.parse_errors().empty());
  // A typo is neither: it returns the default and is recorded once.
  cfg.Set("race-check", "ture");
  EXPECT_FALSE(cfg.GetBool("race-check", false));
  EXPECT_TRUE(cfg.GetBool("race-check", true));
  ASSERT_EQ(cfg.parse_errors().size(), 1u);
  EXPECT_EQ(cfg.parse_errors()[0], "race-check=ture (bool)");
}

TEST(ConfigTest, TypedAccessorsMemoizeAndSetInvalidates) {
  Config cfg;
  cfg.Set("n", "5");
  EXPECT_EQ(cfg.GetInt("n", 0), 5);
  cfg.Set("n", "9");  // must invalidate the memoized parse
  EXPECT_EQ(cfg.GetInt("n", 0), 9);
  // A key that becomes valid after Set also drops its recorded error.
  cfg.Set("x", "oops");
  EXPECT_EQ(cfg.GetInt("x", -1), -1);
  EXPECT_EQ(cfg.parse_errors().size(), 1u);
  cfg.Set("x", "0x10");
  EXPECT_EQ(cfg.GetInt("x", -1), 16);
  EXPECT_TRUE(cfg.parse_errors().empty());
}

TEST(SimulationTest, ClockConversions) {
  Simulation sim(3.0);
  EXPECT_DOUBLE_EQ(sim.CyclesToNs(30), 10.0);
  EXPECT_EQ(sim.NsToCycles(10.0), 30u);
}

TEST(JsonTest, WriterOutputRoundTripsThroughParser) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.KeyValue("name", "casc");
  w.KeyValue("count", uint64_t{42});
  w.KeyValue("ratio", 0.5);
  w.KeyValue("negative", int64_t{-7});
  w.KeyValue("on", true);
  w.Key("list");
  w.BeginArray();
  w.Value(uint64_t{1});
  w.Value("two");
  w.Value(false);
  w.EndArray();
  w.Key("empty");
  w.BeginObject();
  w.EndObject();
  w.Key("none");
  w.Null();
  w.EndObject();

  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(os.str(), &v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("name")->str_v, "casc");
  EXPECT_DOUBLE_EQ(v.Find("count")->num_v, 42.0);
  EXPECT_DOUBLE_EQ(v.Find("ratio")->num_v, 0.5);
  EXPECT_DOUBLE_EQ(v.Find("negative")->num_v, -7.0);
  EXPECT_TRUE(v.Find("on")->bool_v);
  ASSERT_TRUE(v.Find("list")->is_array());
  ASSERT_EQ(v.Find("list")->arr.size(), 3u);
  EXPECT_EQ(v.Find("list")->arr[1].str_v, "two");
  EXPECT_TRUE(v.Find("empty")->is_object());
  EXPECT_TRUE(v.Find("empty")->obj.empty());
  EXPECT_EQ(v.Find("none")->type, JsonValue::Type::kNull);
  EXPECT_EQ(v.Find("absent"), nullptr);
}

TEST(JsonTest, StringsAreEscapedAndRecovered) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.KeyValue("s", nasty);
  w.EndObject();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(os.str(), &v, &err)) << err;
  EXPECT_EQ(v.Find("s")->str_v, nasty);
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  // JSON has no NaN/Inf literals; the writer must emit null so the output
  // always parses.
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.KeyValue("nan", std::nan(""));
  w.KeyValue("inf", std::numeric_limits<double>::infinity());
  w.EndObject();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(os.str(), &v, &err)) << err;
  EXPECT_EQ(v.Find("nan")->type, JsonValue::Type::kNull);
  EXPECT_EQ(v.Find("inf")->type, JsonValue::Type::kNull);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }", &v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(JsonValue::Parse("[1, 2", &v, &err));
  EXPECT_FALSE(JsonValue::Parse("{} trailing", &v, &err));
  EXPECT_FALSE(JsonValue::Parse("", &v, &err));
}

TEST(StatsTest, DumpJsonRoundTrips) {
  StatsRegistry stats;
  stats.Counter("b.second") = 7;
  stats.Counter("a.first") = 3;
  Histogram& h = stats.Hist("lat");
  for (uint64_t i = 1; i <= 100; i++) {
    h.Record(i);
  }
  std::ostringstream os;
  stats.DumpJson(os);

  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(os.str(), &v, &err)) << err;
  const JsonValue* counters = v.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  // std::map iteration gives sorted, deterministic key order.
  ASSERT_EQ(counters->obj.size(), 2u);
  EXPECT_EQ(counters->obj[0].first, "a.first");
  EXPECT_DOUBLE_EQ(counters->obj[0].second.num_v, 3.0);
  EXPECT_EQ(counters->obj[1].first, "b.second");

  const JsonValue* lat = v.Find("histograms")->Find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->Find("count")->num_v, 100.0);
  EXPECT_DOUBLE_EQ(lat->Find("mean")->num_v, h.mean());
  EXPECT_DOUBLE_EQ(lat->Find("min")->num_v, 1.0);
  EXPECT_DOUBLE_EQ(lat->Find("max")->num_v, 100.0);
  EXPECT_DOUBLE_EQ(lat->Find("p50")->num_v, static_cast<double>(h.P50()));
  EXPECT_DOUBLE_EQ(lat->Find("p999")->num_v, static_cast<double>(h.P999()));
  const JsonValue* buckets = lat->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  // Buckets carry the raw data: their counts must sum back to count.
  double total = 0;
  for (const JsonValue& b : buckets->arr) {
    ASSERT_TRUE(b.is_array());
    ASSERT_EQ(b.arr.size(), 2u);
    total += b.arr[1].num_v;
  }
  EXPECT_DOUBLE_EQ(total, 100.0);
}

TEST(StatsTest, EmptyRegistryDumpsValidJson) {
  StatsRegistry stats;
  std::ostringstream os;
  stats.DumpJson(os);
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(os.str(), &v, &err)) << err;
  EXPECT_TRUE(v.Find("counters")->is_object());
  EXPECT_TRUE(v.Find("histograms")->is_object());
}

}  // namespace
}  // namespace casc
