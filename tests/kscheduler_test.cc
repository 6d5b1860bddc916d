// Tests for the kernel scheduler runtime (§4's "role of the OS scheduler"):
// placement onto free hardware threads, priority policy, and cross-core
// migration of register images.
#include <gtest/gtest.h>

#include "src/cpu/machine.h"
#include "src/dev/apic_timer.h"
#include "src/runtime/kscheduler.h"

namespace casc {
namespace {

class KschedulerTest : public ::testing::Test {
 protected:
  KschedulerTest() {
    MachineConfig cfg;
    cfg.num_cores = 2;
    cfg.hwt.threads_per_core = 16;
    machine_ = std::make_unique<Machine>(cfg);
    // Worker program: counts in a0 forever (a1 selects nothing; the image is
    // shared by all soft threads).
    machine_->LoadSource(0, 15,
                         "work_entry:\n"
                         "  addi a0, a0, 1\n"
                         "  j work_entry\n",
                         /*supervisor=*/false, "work_entry", 0, 0x5000);
    entry_ = 0x5000;
    sched_ = std::make_unique<KernelScheduler>(*machine_, 0, 0);
    ApicTimerConfig tcfg;
    tcfg.period = 5000;
    tcfg.counter_addr = kSchedTimerCounter;
    timer_ = std::make_unique<ApicTimer>(machine_->sim(), machine_->mem(), tcfg);
  }

  std::unique_ptr<Machine> machine_;
  std::unique_ptr<KernelScheduler> sched_;
  std::unique_ptr<ApicTimer> timer_;
  Addr entry_ = 0;
};

TEST_F(KschedulerTest, PlacesSubmittedThreads) {
  sched_->AddWorkerPool(0, 1, 4);
  sched_->Install();
  timer_->StartTimer();
  machine_->RunFor(1000);
  const uint64_t id0 = sched_->Submit(entry_, 100);
  const uint64_t id1 = sched_->Submit(entry_, 200);
  machine_->RunFor(20000);
  EXPECT_EQ(sched_->placements(), 2u);
  const Ptid p0 = sched_->LocationOf(id0);
  const Ptid p1 = sched_->LocationOf(id1);
  ASSERT_NE(p0, kInvalidPtid);
  ASSERT_NE(p1, kInvalidPtid);
  EXPECT_NE(p0, p1);
  // Both run and count upward from their seeded a0.
  EXPECT_GT(machine_->threads().thread(p0).ReadGpr(10), 100u);
  EXPECT_GT(machine_->threads().thread(p1).ReadGpr(10), 200u);
}

TEST_F(KschedulerTest, OverflowWaitsForFreeSlot) {
  sched_->AddWorkerPool(0, 1, 2);
  sched_->Install();
  timer_->StartTimer();
  machine_->RunFor(1000);
  sched_->Submit(entry_, 1);
  sched_->Submit(entry_, 2);
  const uint64_t id2 = sched_->Submit(entry_, 3);
  machine_->RunFor(30000);
  EXPECT_EQ(sched_->placements(), 2u);
  EXPECT_EQ(sched_->LocationOf(id2), kInvalidPtid);  // no slot: still pending
}

TEST_F(KschedulerTest, BalancesAcrossCoresByMigration) {
  // Only core 0 has a pool at first; four threads pile up there. Adding a
  // core-1 pool lets the balancer migrate register images across cores.
  sched_->AddWorkerPool(0, 1, 8);
  sched_->Install();
  timer_->StartTimer();
  machine_->RunFor(1000);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; i++) {
    ids.push_back(sched_->Submit(entry_, 1000 + static_cast<uint64_t>(i)));
  }
  machine_->RunFor(30000);
  EXPECT_EQ(sched_->placements(), 4u);
  sched_->AddWorkerPool(1, 1, 8);
  machine_->RunFor(100000);
  EXPECT_GE(sched_->migrations(), 1u);
  // At least one thread now lives on core 1, still counting from where its
  // image left off.
  uint32_t on_core1 = 0;
  for (uint64_t id : ids) {
    const Ptid loc = sched_->LocationOf(id);
    ASSERT_NE(loc, kInvalidPtid);
    if (machine_->threads().CoreOf(loc) == 1) {
      on_core1++;
      const uint64_t mid = machine_->threads().thread(loc).ReadGpr(10);
      EXPECT_GT(mid, 1000u);
      machine_->RunFor(20000);
      EXPECT_GT(machine_->threads().thread(loc).ReadGpr(10), mid);  // still alive
    }
  }
  EXPECT_GE(on_core1, 1u);
}

TEST_F(KschedulerTest, PriorityPolicyApplied) {
  // Oversubscribe the SMT slots so the weighted share matters: one prio-6
  // image competes with five prio-1 images.
  sched_->AddWorkerPool(0, 1, 8);
  sched_->Install();
  timer_->StartTimer();
  machine_->RunFor(1000);
  const uint64_t hi = sched_->Submit(entry_, 0, 0, /*prio=*/6);
  std::vector<uint64_t> lows;
  for (int i = 0; i < 5; i++) {
    lows.push_back(sched_->Submit(entry_, 0, 0, /*prio=*/1));
  }
  machine_->RunFor(300000);
  const Ptid hp = sched_->LocationOf(hi);
  ASSERT_NE(hp, kInvalidPtid);
  EXPECT_EQ(machine_->threads().thread(hp).arch().prio, 6u);
  const uint64_t hi_count = machine_->threads().thread(hp).ReadGpr(10);
  uint64_t lo_total = 0;
  for (uint64_t id : lows) {
    const Ptid lp = sched_->LocationOf(id);
    ASSERT_NE(lp, kInvalidPtid);
    lo_total += machine_->threads().thread(lp).ReadGpr(10);
  }
  const uint64_t lo_mean = lo_total / lows.size();
  // The weighted hardware RR gives the high-priority image a clearly larger
  // share than the average low-priority one.
  EXPECT_GT(hi_count, 2 * lo_mean);
}

TEST_F(KschedulerTest, RingSpawnReplacesHostSubmitHop) {
  // Guest-side spawn over the shared ring transport: a ring worker queues
  // the request and rings the scheduler doorbell — no host-side Submit.
  sched_->AddWorkerPool(0, 1, 4);
  sched_->Install();
  timer_->StartTimer();
  RingConfig cfg;
  cfg.entries = 8;
  cfg.num_workers = 1;
  cfg.name = "sched";
  RingServer spawn_ring(*machine_, 0, 6, 0x00440000, cfg, sched_->SpawnHandler());
  spawn_ring.Install();
  uint64_t soft_ids[2] = {~0ull, ~0ull};
  const Ptid spawner = machine_->BindNative(
      0, 8,
      [&](GuestContext& ctx) -> GuestTask {
        SyscallRequest reqs[2] = {
            {.nr = kSchedSpawn, .a0 = entry_, .a1 = 500, .a2 = 2},
            {.nr = kSchedSpawn, .a0 = entry_, .a1 = 600, .a2 = 3},
        };
        co_await ctx.Call(RingCallBatch(ctx, spawn_ring.ring(), reqs, 2, soft_ids));
        co_await ctx.StopSelf();
      },
      /*supervisor=*/false);
  machine_->Start(spawner);
  machine_->RunFor(60000);
  EXPECT_EQ(spawn_ring.served(), 2u);
  EXPECT_EQ(sched_->placements(), 2u);
  for (uint64_t id : soft_ids) {
    const Ptid loc = sched_->LocationOf(id);
    ASSERT_NE(loc, kInvalidPtid);
    EXPECT_GT(machine_->threads().thread(loc).ReadGpr(10), 400u);
  }
}

TEST_F(KschedulerTest, SpawnHandlerRefusesCrossCoreInstall) {
  // SpawnHandler mutates the scheduler's own state, so its RingServer must
  // run on the scheduler's core (an API rule). A ring installed on another
  // core must get a clean refusal (kSchedSpawnRefused).
  sched_->AddWorkerPool(0, 1, 4);
  sched_->Install();
  timer_->StartTimer();
  RingConfig cfg;
  cfg.entries = 8;
  cfg.num_workers = 1;
  cfg.name = "xcore";
  RingServer spawn_ring(*machine_, /*core=*/1, 0, 0x00450000, cfg, sched_->SpawnHandler());
  spawn_ring.Install();
  uint64_t soft_id = 0;
  const Ptid spawner = machine_->BindNative(
      1, 4,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Call(RingCall(ctx, spawn_ring.ring(),
                                   {.nr = kSchedSpawn, .a0 = entry_, .a1 = 500, .a2 = 2},
                                   &soft_id));
        co_await ctx.StopSelf();
      },
      /*supervisor=*/false);
  machine_->Start(spawner);
  machine_->RunFor(60000);
  EXPECT_EQ(soft_id, kSchedSpawnRefused);
  EXPECT_EQ(sched_->placements(), 0u);
  EXPECT_EQ(sched_->LocationOf(kSchedSpawnRefused), kInvalidPtid);
}

}  // namespace
}  // namespace casc
