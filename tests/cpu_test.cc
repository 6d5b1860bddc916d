// End-to-end CPU tests: interpreted CASC-ISA programs and native coroutine
// programs running on the simulated SMT cores with the full hardware
// threading model underneath.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cpu/machine.h"
#include "src/hwt/exception.h"
#include "src/hwt/tracer.h"
#include "src/sim/rng.h"

namespace casc {
namespace {

// Collects (code, a0) pairs from hcall instructions.
struct HcallLog {
  std::vector<std::pair<int64_t, uint64_t>> entries;

  void InstallOn(Machine& m) {
    m.SetHcallHandler([this](Core&, HwThread& t, int64_t code) {
      entries.push_back({code, t.ReadGpr(10)});
    });
  }
  uint64_t Last(int64_t code) const {
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (it->first == code) {
        return it->second;
      }
    }
    return UINT64_MAX;
  }
};

TEST(CpuTest, RunsArithmeticLoop) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  // Sum 1..10 into a0.
  const Ptid p = m.LoadSource(0, 0,
                              "  li a0, 0\n"
                              "  li a1, 1\n"
                              "  li a2, 11\n"
                              "loop:\n"
                              "  add a0, a0, a1\n"
                              "  addi a1, a1, 1\n"
                              "  bne a1, a2, loop\n"
                              "  hcall 1\n"
                              "  halt\n",
                              /*supervisor=*/true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 55u);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
  EXPECT_FALSE(m.halted());
}

TEST(CpuTest, LoadsAndStoresThroughCaches) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  const Ptid p = m.LoadSource(0, 0,
                              "  li a1, 0x8000\n"
                              "  li a2, 1234\n"
                              "  sd a2, 0(a1)\n"
                              "  ld a0, 0(a1)\n"
                              "  addi a0, a0, 1\n"
                              "  sd a0, 8(a1)\n"
                              "  hcall 1\n"
                              "  halt\n",
                              true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 1235u);
  EXPECT_EQ(m.mem().phys().Read64(0x8008), 1235u);
}

TEST(CpuTest, MonitorMwaitProducerConsumer) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  // Consumer on thread 0: wait for the flag line, then read data.
  // Data lives on a different cache line (0x9040) than the watched flag
  // (0x9000) so only the flag write wakes the consumer.
  const Ptid consumer = m.LoadSource(0, 0,
                                     "  li a1, 0x9000\n"
                                     "  monitor a1\n"
                                     "  mwait\n"
                                     "  ld a0, 64(a1)\n"
                                     "  hcall 1\n"
                                     "  csrrd a0, cycle\n"
                                     "  hcall 2\n"
                                     "  halt\n",
                                     true, "", 0, 0x1000);
  // Producer on thread 1: compute a while, then write data + flag.
  const Ptid producer = m.LoadSource(0, 1,
                                     "  li a1, 0x9000\n"
                                     "  li a2, 777\n"
                                     "  li a3, 200\n"
                                     "spin:\n"
                                     "  addi a3, a3, -1\n"
                                     "  bne a3, r0, spin\n"
                                     "  sd a2, 64(a1)\n"
                                     "  csrrd a0, cycle\n"
                                     "  hcall 3\n"
                                     "  sd a2, 0(a1)\n"  // flag write wakes consumer
                                     "  halt\n",
                                     true, "", 0, 0x2000);
  m.Start(consumer);
  m.Start(producer);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 777u);
  const uint64_t produced_at = log.Last(3);
  const uint64_t consumed_at = log.Last(2);
  ASSERT_NE(produced_at, UINT64_MAX);
  ASSERT_NE(consumed_at, UINT64_MAX);
  // Wakeup is nanosecond-scale: well under 100 cycles from flag write to the
  // consumer executing again (§1 "Resuming execution ... nanosecond scale").
  EXPECT_GT(consumed_at, produced_at);
  EXPECT_LT(consumed_at - produced_at, 100u);
}

TEST(CpuTest, StartSpawnsWorkerThread) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  const Ptid worker = m.LoadSource(0, 1,
                                   "  li a0, 42\n"
                                   "  hcall 1\n"
                                   "  halt\n",
                                   true, "", 0, 0x3000);
  const Ptid boss = m.LoadSource(0, 0,
                                 "  li a1, 1\n"  // supervisor identity vtid = ptid
                                 "  start a1\n"
                                 "  halt\n",
                                 true, "", 0, 0x1000);
  (void)worker;
  m.Start(boss);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 42u);
}

TEST(CpuTest, RpushSetsUpSoftwareThreadThenStarts) {
  // The OS-scheduler pattern from §3.1: write a disabled ptid's registers
  // (including its PC) with rpush, then start it.
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  m.LoadSource(0, 1,
               "entry_a:\n"
               "  hcall 1\n"
               "  halt\n"
               "entry_b:\n"
               "  addi a0, a0, 900\n"
               "  hcall 1\n"
               "  halt\n",
               true, "entry_a", 0, 0x4000);
  const Program& dummy = *[] {
    static AssembleResult r = Assembler::Assemble(
        "  li a1, 1\n"
        "  li a2, 0x4008\n"     // entry_b (2 instructions past 0x4000)
        "  rpush a1, pc, a2\n"  // redirect the worker
        "  li a3, 55\n"
        "  rpush a1, a0, a3\n"  // seed its a0
        "  start a1\n"
        "  halt\n",
        0x1000);
    return &r.program;
  }();
  const Ptid boss = m.Load(0, 0, dummy, true);
  m.Start(boss);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 955u);
}

TEST(CpuTest, DivideByZeroHandlerChain) {
  // Faulting thread writes a descriptor; a handler thread monitoring the EDP
  // line wakes, reads the descriptor type, and reports it.
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  constexpr Addr kEdp = 0xa000;
  const Ptid faulty = m.LoadSource(0, 0,
                                   "  li a1, 10\n"
                                   "  li a2, 0\n"
                                   "  div a0, a1, a2\n"
                                   "  hcall 9\n"  // must not execute
                                   "  halt\n",
                                   false, "", kEdp, 0x1000);
  const Ptid handler = m.LoadSource(0, 1,
                                    "  li a1, 0xa000\n"
                                    "  monitor a1\n"
                                    "  mwait\n"
                                    "  lw a0, 0(a1)\n"  // descriptor type field
                                    "  hcall 1\n"
                                    "  ld a0, 16(a1)\n"  // errcode? no: addr field
                                    "  halt\n",
                                    true, "", 0, 0x2000);
  m.Start(faulty);
  m.Start(handler);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), static_cast<uint64_t>(ExceptionType::kDivideByZero));
  EXPECT_EQ(log.Last(9), UINT64_MAX);  // faulting thread never continued
  EXPECT_EQ(m.threads().thread(faulty).state(), ThreadState::kDisabled);
  EXPECT_FALSE(m.halted());
}

TEST(CpuTest, UnhandledExceptionHaltsMachine) {
  Machine m;
  const Ptid p = m.LoadSource(0, 0,
                              "  li a1, 1\n"
                              "  li a2, 0\n"
                              "  div a0, a1, a2\n"
                              "  halt\n",
                              false);  // no EDP
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_TRUE(m.halted());
  EXPECT_NE(m.halt_reason().find("divide-by-zero"), std::string::npos);
}

TEST(CpuTest, UserModeCsrWriteFaults) {
  Machine m;
  constexpr Addr kEdp = 0xa000;
  const Ptid p = m.LoadSource(0, 0,
                              "  li a0, 1\n"
                              "  csrwr mode, a0\n"  // privileged
                              "  halt\n",
                              false, "", kEdp);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(m.mem(), kEdp);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPrivilegedInstruction));
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
}

TEST(CpuTest, UserLoadFromProtectedRangePageFaults) {
  // §3: "Events such as page faults that trigger exceptions in today's CPUs
  // simply write an exception descriptor to memory and disable the current
  // ptid."
  Machine m;
  constexpr Addr kEdp = 0xa000;
  m.mem().AddSupervisorOnlyRange(0x00f00000, 0x1000);
  const Ptid p = m.LoadSource(0, 0,
                              "  li a1, 0x00f00800\n"
                              "  ld a0, 0(a1)\n"  // protected: page fault
                              "  hcall 9\n"        // must not run
                              "  halt\n",
                              /*supervisor=*/false, "", kEdp);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(m.mem(), kEdp);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPageFault));
  EXPECT_EQ(d.addr, 0x00f00800u);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
  EXPECT_FALSE(m.halted());
}

TEST(CpuTest, SupervisorAccessToProtectedRangeAllowed) {
  Machine m;
  m.mem().AddSupervisorOnlyRange(0x00f00000, 0x1000);
  const Ptid p = m.LoadSource(0, 0,
                              "  li a1, 0x00f00800\n"
                              "  li a0, 42\n"
                              "  sd a0, 0(a1)\n"
                              "  halt\n",
                              /*supervisor=*/true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(m.mem().phys().Read64(0x00f00800), 42u);
  EXPECT_FALSE(m.halted());
}

TEST(CpuTest, NativeUserStorePageFaults) {
  Machine m;
  m.mem().AddSupervisorOnlyRange(0x00f00000, 0x1000);
  bool reached_after = false;
  const Ptid p = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Store(0x00f00000, 1);
        reached_after = true;
      },
      /*supervisor=*/false, /*edp=*/0xa000);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_FALSE(reached_after);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(m.mem(), 0xa000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPageFault));
}

TEST(CpuTest, SmtSharesCoreFairly) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  const char* counting =
      "  li a0, 0\n"
      "  li a2, 2000\n"
      "loop:\n"
      "  addi a0, a0, 1\n"
      "  bne a0, a2, loop\n"
      "  csrrd a0, cycle\n"
      "  hcall 1\n"
      "  halt\n";
  const Ptid a = m.LoadSource(0, 0, counting, true, "", 0, 0x1000);
  const Ptid b = m.LoadSource(0, 1, counting, true, "", 0, 0x2000);
  m.Start(a);
  m.Start(b);
  ASSERT_TRUE(m.RunToQuiescence());
  // Both finish at roughly the same time (fine-grain RR over 2 SMT slots).
  ASSERT_EQ(log.entries.size(), 2u);
  const uint64_t t0 = log.entries[0].second;
  const uint64_t t1 = log.entries[1].second;
  EXPECT_LT(t0 > t1 ? t0 - t1 : t1 - t0, 100u);
}

TEST(CpuTest, PriorityWeightingSkewsProgress) {
  MachineConfig cfg;
  cfg.hwt.smt_width = 1;  // single slot: pure weighted RR
  Machine m(cfg);
  HcallLog log;
  log.InstallOn(m);
  const char* counting =
      "  li a0, 0\n"
      "  li a2, 3000\n"
      "loop:\n"
      "  addi a0, a0, 1\n"
      "  bne a0, a2, loop\n"
      "  csrrd a0, cycle\n"
      "  hcall 1\n"
      "  halt\n";
  const Ptid fast = m.LoadSource(0, 0, counting, true, "", 0, 0x1000);
  const Ptid slow = m.LoadSource(0, 1, counting, true, "", 0, 0x2000);
  m.threads().thread(fast).arch().prio = 4;
  m.Start(fast);
  m.Start(slow);
  ASSERT_TRUE(m.RunToQuiescence());
  ASSERT_EQ(log.entries.size(), 2u);
  const uint64_t fast_done = log.entries[0].second;
  const uint64_t slow_done = log.entries[1].second;
  EXPECT_LT(fast_done, slow_done);
  // With a 4:1 share the high-priority thread finishes at ~62.5% of the
  // low-priority completion time (4/5 of the shared window, then the slow
  // thread runs alone). Allow slack for startup effects.
  EXPECT_LT(static_cast<double>(fast_done), 0.7 * static_cast<double>(slow_done));
}

TEST(CpuTest, NativeProgramComputesAndStores) {
  Machine m;
  const Ptid p = m.BindNative(
      0, 0,
      [](GuestContext& ctx) -> GuestTask {
        uint64_t acc = 0;
        for (int i = 1; i <= 4; i++) {
          co_await ctx.Compute(10);
          acc += static_cast<uint64_t>(i);
        }
        co_await ctx.Store(0xb000, acc);
      },
      /*supervisor=*/true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(m.mem().phys().Read64(0xb000), 10u);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
  // 4 computes of 10 cycles dominate: finishes in a plausible window.
  EXPECT_GE(m.sim().now(), 40u);
  EXPECT_LT(m.sim().now(), 400u);
}

TEST(CpuTest, NativeMwaitWokenByDeviceWrite) {
  Machine m;
  const Ptid p = m.BindNative(
      0, 0,
      [](GuestContext& ctx) -> GuestTask {
        co_await ctx.Monitor(0xc000);
        co_await ctx.Mwait();
        const uint64_t v = co_await ctx.Load(0xc000);
        co_await ctx.Store(0xc100, v + 1);
      },
      true);
  m.Start(p);
  // Let it reach the mwait, then DMA like a NIC would.
  m.RunFor(1000);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kWaiting);
  const uint64_t pkt = 41;
  m.mem().DmaWrite(0xc000, &pkt, 8);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(m.mem().phys().Read64(0xc100), 42u);
}

TEST(CpuTest, NativeServerLoopHandlesManyEvents) {
  Machine m;
  const Addr kDoorbell = 0xd000;
  const Addr kCounter = 0xd100;
  const Ptid p = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Monitor(kDoorbell);
        for (;;) {
          co_await ctx.Mwait();
          const uint64_t n = co_await ctx.Load(kCounter);
          co_await ctx.Store(kCounter, n + 1);
        }
      },
      true);
  m.Start(p);
  for (int i = 0; i < 5; i++) {
    m.RunFor(500);
    const uint64_t bell = static_cast<uint64_t>(i);
    m.mem().DmaWrite(kDoorbell, &bell, 8);
  }
  m.RunFor(500);
  EXPECT_EQ(m.mem().phys().Read64(kCounter), 5u);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kWaiting);
}

TEST(CpuTest, NativeRestartAfterCompletionRunsFreshInstance) {
  Machine m;
  int runs = 0;
  const Ptid p = m.BindNative(
      0, 0,
      [&runs](GuestContext& ctx) -> GuestTask {
        runs++;
        co_await ctx.Compute(5);
      },
      true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(runs, 1);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(runs, 2);
}

TEST(CpuTest, NativeStartsInterpretedWorkerAcrossCores) {
  MachineConfig cfg;
  cfg.num_cores = 2;
  Machine m(cfg);
  HcallLog log;
  log.InstallOn(m);
  const Ptid remote_worker = m.LoadSource(1, 0,
                                          "  li a0, 7\n"
                                          "  hcall 1\n"
                                          "  halt\n",
                                          true);
  const Ptid boss = m.BindNative(
      0, 0,
      [remote_worker](GuestContext& ctx) -> GuestTask {
        co_await ctx.Compute(10);
        co_await ctx.Start(remote_worker);  // supervisor identity mapping
      },
      true);
  m.Start(boss);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 7u);
}

TEST(CpuTest, WakeLatencyReflectsStorageTier) {
  // A thread whose context spilled to DRAM wakes slower than an RF-resident
  // one (E1/E8 mechanism check).
  MachineConfig cfg;
  cfg.hwt.threads_per_core = 32;
  cfg.hwt.rf_slots = 2;
  cfg.hwt.l2_slots = 2;
  cfg.hwt.l3_slots = 2;
  Machine m(cfg);
  const Ptid hot = m.LoadSource(0, 0, "halt\n", true, "", 0, 0x1000);
  const Ptid cold = m.LoadSource(0, 20, "halt\n", true, "", 0, 0x2000);
  EXPECT_EQ(m.threads().thread(hot).tier(), StorageTier::kRegFile);
  EXPECT_EQ(m.threads().thread(cold).tier(), StorageTier::kDram);
  const Tick t0 = m.sim().now();
  m.Start(hot);
  const Tick hot_ready = m.threads().thread(hot).ready_at() - t0;
  m.Start(cold);
  const Tick cold_ready = m.threads().thread(cold).ready_at() - t0;
  EXPECT_LT(hot_ready, cold_ready);
  EXPECT_EQ(hot_ready, kPipelineRestoreCycles);
  EXPECT_GE(cold_ready, kDramLatency);
}

TEST(CpuTest, StopFromAnotherThread) {
  // The stopper and the spinner share core 0, or the spinner sits on core 1
  // and the stop crosses cores.
  for (CoreId spinner_core : {0u, 1u}) {
    SCOPED_TRACE("spinner on core " + std::to_string(spinner_core));
    MachineConfig cfg;
    cfg.num_cores = spinner_core + 1;
    Machine m(cfg);
    const uint32_t spinner_local = spinner_core == 0 ? 1 : 0;
    const Ptid spinner = m.LoadSource(spinner_core, spinner_local,
                                      "loop:\n"
                                      "  addi a0, a0, 1\n"
                                      "  j loop\n",
                                      true, "", 0, 0x2000);
    const Ptid boss = m.LoadSource(0, 0,
                                   "  li a1, 400\n"
                                   "wait:\n"
                                   "  addi a1, a1, -1\n"
                                   "  bne a1, r0, wait\n"
                                   "  li a2, " + std::to_string(spinner) + "\n"
                                   "  stop a2\n"
                                   "  halt\n",
                                   true, "", 0, 0x1000);
    m.Start(spinner);
    m.Start(boss);
    ASSERT_TRUE(m.RunToQuiescence());
    EXPECT_EQ(m.threads().thread(spinner).state(), ThreadState::kDisabled);
    // The spinner made progress but was stopped mid-loop.
    EXPECT_GT(m.threads().thread(spinner).ReadGpr(10), 0u);
  }
}

constexpr Addr TokenFlag(uint32_t c) { return 0x200000 + 0x100 * c; }
constexpr Addr TokenSlot(uint32_t c) { return 0x300000 + 0x100 * c; }

// A 4-core token ring: worker 0 starts workers 1..3 through a booter
// (guest-side cross-core starts), then each round passes a token around the
// ring through per-core flag lines. Every flag line has exactly one writer
// (the predecessor) and one monitoring reader (the owner), so each hop is a
// store landing on a line another core's thread is waiting on.
TEST(CpuTest, TokenRingAcrossFourCores) {
  constexpr uint32_t kCores = 4;
  constexpr uint64_t kRounds = 25;
  struct Result {
    bool quiesced = false;
    Tick now = 0;
    std::string stats_json;
  };
  auto run = [&](Machine& m, ThreadTracer& tracer) {
    m.threads().SetTracer(&tracer);
    std::vector<Ptid> workers(kCores);
    for (uint32_t c = 0; c < kCores; c++) {
      const uint32_t next = (c + 1) % kCores;
      workers[c] = m.BindNative(
          c, 0,
          [c, next](GuestContext& ctx) -> GuestTask {
            for (uint64_t k = 1; k <= kRounds; k++) {
              if (c == 0) {
                co_await ctx.Store(TokenFlag(1), k);  // send the token
              }
              for (;;) {
                co_await ctx.Monitor(TokenFlag(c));
                if (co_await ctx.Load(TokenFlag(c)) >= k) {
                  break;
                }
                co_await ctx.Mwait();
              }
              co_await ctx.Compute(11 + c);
              co_await ctx.Store(TokenSlot(c), k * 1000 + c);
              if (c != 0) {
                co_await ctx.Store(TokenFlag(next), k);
              }
            }
            co_await ctx.StopSelf();
          },
          /*supervisor=*/true);
    }
    const Ptid booter = m.BindNative(
        0, 1,
        [&workers](GuestContext& ctx) -> GuestTask {
          for (uint32_t c = 1; c < workers.size(); c++) {
            co_await ctx.Start(workers[c]);
          }
          co_await ctx.StopSelf();
        },
        /*supervisor=*/true);
    m.Start(booter);
    m.Start(workers[0]);
    Result r;
    r.quiesced = m.RunToQuiescence();
    r.now = m.sim().now();
    std::ostringstream os;
    m.sim().stats().DumpJson(os);
    r.stats_json = os.str();
    return r;
  };
  MachineConfig cfg;
  cfg.num_cores = kCores;
  cfg.hwt.threads_per_core = 4;
  Machine m(cfg);
  ThreadTracer tracer;
  const Result a = run(m, tracer);
  EXPECT_TRUE(a.quiesced);
  EXPECT_FALSE(m.halted());
  for (uint32_t c = 0; c < kCores; c++) {
    EXPECT_EQ(m.mem().phys().Read64(TokenSlot(c)), kRounds * 1000 + c) << "core " << c;
  }
  // The trace of a multi-core run is one tick-ordered stream.
  const std::vector<ThreadTracer::Event>& events = tracer.events();
  ASSERT_FALSE(events.empty());
  for (size_t i = 1; i < events.size(); i++) {
    EXPECT_LE(events[i - 1].tick, events[i].tick);
  }
  Machine again(cfg);
  ThreadTracer tracer2;
  const Result b = run(again, tracer2);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.stats_json, b.stats_json);
}

// Pins cross-core event order within one cycle: three writer cores run the
// same compute/store cadence, so their tick events land on the same cycles,
// and their stores wake three monitoring waiters on a fourth core on one of
// those cycles. Which waiter takes which of that core's two SMT slots
// depends on the order the same-tick core ticks and wakes fire in. The
// wake ticks and per-core counters below are golden values; a change to
// same-tick order, such as a LIFO tie-break, moves them.
constexpr Addr PinFlag(uint32_t c) { return 0x400000 + 0x100 * c; }

TEST(CpuTest, SameCycleCrossCoreWakesArePinned) {
  constexpr uint32_t kWriters = 3;
  constexpr uint64_t kRounds = 6;
  MachineConfig cfg;
  cfg.num_cores = kWriters + 1;
  cfg.hwt.threads_per_core = 4;
  Machine m(cfg);
  std::vector<std::vector<Tick>> stores(kWriters);
  std::vector<std::vector<Tick>> wakes(kWriters);
  for (uint32_t c = 0; c < kWriters; c++) {
    m.Start(m.BindNative(
        c, 0,
        [&m, &stores, c](GuestContext& ctx) -> GuestTask {
          co_await ctx.Compute(600);  // every waiter is parked in mwait by now
          for (uint64_t k = 1; k <= kRounds; k++) {
            co_await ctx.Compute(150);
            stores[c].push_back(m.sim().now());
            co_await ctx.Store(PinFlag(c), k);
          }
          co_await ctx.StopSelf();
        },
        /*supervisor=*/true));
    m.Start(m.BindNative(
        kWriters, c,
        [&m, &wakes, c](GuestContext& ctx) -> GuestTask {
          for (uint64_t k = 1; k <= kRounds; k++) {
            for (;;) {
              co_await ctx.Monitor(PinFlag(c));
              if (co_await ctx.Load(PinFlag(c)) >= k) {
                break;
              }
              co_await ctx.Mwait();
            }
            wakes[c].push_back(m.sim().now());
            co_await ctx.Compute(2);
          }
          co_await ctx.StopSelf();
        },
        /*supervisor=*/true));
  }
  ASSERT_TRUE(m.RunToQuiescence());
  ASSERT_FALSE(m.halted());
  // The writers really do tick together: every round's store issues on one
  // cycle on all three cores.
  for (uint32_t c = 1; c < kWriters; c++) {
    EXPECT_EQ(stores[c], stores[0]) << "writer " << c;
  }
  // Waiters 0 and 1 take core 3's two SMT slots at the wake cycle; waiter 2
  // issues one cycle later.
  const std::vector<std::vector<Tick>> want_wakes = {{852, 1062, 1216, 1370, 1524, 1678},
                                                     {852, 1062, 1216, 1370, 1524, 1678},
                                                     {853, 1063, 1217, 1371, 1525, 1679}};
  EXPECT_EQ(wakes, want_wakes);
  std::vector<uint64_t> insts;
  std::vector<uint64_t> active;
  std::vector<uint64_t> idle_wakeups;
  for (uint32_t c = 0; c <= kWriters; c++) {
    const std::string core = "cpu.core" + std::to_string(c);
    insts.push_back(m.sim().stats().GetCounter(core + ".instructions"));
    active.push_back(m.sim().stats().GetCounter(core + ".active_cycles"));
    idle_wakeups.push_back(m.sim().stats().GetCounter(core + ".idle_wakeups"));
  }
  EXPECT_EQ(insts, (std::vector<uint64_t>{1507, 1507, 1507, 129}));
  EXPECT_EQ(active, (std::vector<uint64_t>{1507, 1507, 1507, 80}));
  EXPECT_EQ(idle_wakeups, (std::vector<uint64_t>{1, 1, 1, 7}));
  EXPECT_EQ(m.sim().now(), 1682u);
  EXPECT_EQ(stores[0], (std::vector<Tick>{770, 980, 1134, 1288, 1442, 1596}));
}

// RunFor(x) returns with the clock at exactly x while every core is busy
// (each core takes its ticks in place up to the limit), at any core count —
// including more than 64 cores.
TEST(CpuTest, RunForStopsAtExactlyItsLimit) {
  for (uint32_t cores : {1u, 4u, 65u}) {
    SCOPED_TRACE(std::to_string(cores) + " cores");
    MachineConfig cfg;
    cfg.num_cores = cores;
    cfg.hwt.threads_per_core = 1;
    Machine m(cfg);
    for (uint32_t c = 0; c < cores; c++) {
      m.Start(m.LoadSource(c, 0,
                           "loop:\n"
                           "  addi a0, a0, 1\n"
                           "  j loop\n",
                           true));
    }
    m.RunFor(12345);
    EXPECT_EQ(m.sim().now(), 12345u);
    m.RunFor(655);
    EXPECT_EQ(m.sim().now(), 13000u);
    for (uint32_t c = 0; c < cores; c++) {
      EXPECT_GT(m.core(c).instructions_retired(), 0u) << "core " << c;
    }
  }
}

// Quiet ticks (DESIGN.md §4e): when a core whose every ready thread is
// mid-Compute schedules its lane, the event queue steps all such cores up to
// the next tick anything else can happen in one dispatch; a thread waiting
// on a latency ends the stretch at its ready tick. Randomized
// differential against one-tick stepping: the same native workload is run
// once with RunUntil (bulk steps and in-place ticks allowed) and once as a
// RunOne loop (one event per dispatch, no bulk step). At every checkpoint
// the per-op log, the per-core counters, the round-robin state and the next
// event tick must match exactly.
TEST(CpuTest, QuietAdvanceMatchesOneTickStepping) {
  constexpr uint64_t kSeeds = 1000;
  constexpr Tick kHorizon = 4000;
  constexpr Tick kCheckpoint = 250;
  constexpr Addr kFlags = 0x400000;  // four flag lines shared by all cores
  struct Op {
    uint8_t kind;  // 0 compute, 1 store, 2 monitor + load + mwait, 3 load
    uint64_t arg;  // compute cycles, or flag index
  };
  struct Rec {
    Ptid ptid;
    Tick tick;
    uint8_t kind;
    uint64_t result;
    uint64_t picks;  // RoundRobin of the thread's core as the op completes
    bool operator==(const Rec&) const = default;
  };
  // The round-robin cursor and credits show only through later pick order,
  // so probe them: 16 one-wide picks, 3 bits each, on a copy of the queue at
  // a tick where every runnable thread is ready.
  auto round_robin = [](const SchedQueue& q, uint32_t threads_per_core) {
    SchedQueue probe = q;
    std::vector<HwThread*> picked;
    uint64_t picks = 0;
    for (int i = 0; i < 16; i++) {
      probe.PickUpTo(std::numeric_limits<Tick>::max(), 1, &picked);
      picks = picks << 3 | (picked.empty() ? 7 : picked[0]->ptid() % threads_per_core);
    }
    return picks;
  };
  uint64_t fewer_dispatches = 0;
  uint64_t waiting_stretches = 0;  // bulk steps with a not-ready thread in the rotation
  for (uint64_t seed = 1; seed <= kSeeds; seed++) {
    Rng rng(seed);
    MachineConfig cfg;
    cfg.num_cores = static_cast<uint32_t>(rng.NextRange(1, 4));
    cfg.hwt.threads_per_core = static_cast<uint32_t>(rng.NextRange(1, 4));
    cfg.hwt.smt_width = static_cast<uint32_t>(rng.NextRange(1, 3));
    // Half the seeds aim at the round-robin closed form instead: one core
    // whose three threads all fit its SMT slots and alternate a load with a
    // compute a little longer than a credit period. A load's latency makes
    // the cursor skip its thread while it is not ready, leaving partial
    // credits behind, and the compute that follows puts them inside a quiet
    // stretch. Elsewhere other cores' ticks end most stretches early.
    const bool round_robin_heavy = rng.NextBounded(2) == 0;
    if (round_robin_heavy) {
      cfg.num_cores = 1;
      cfg.hwt.threads_per_core = 3;
      cfg.hwt.smt_width = 3;
    }
    cfg.hwt.rf_slots = static_cast<uint32_t>(rng.NextRange(1, 4));
    cfg.hwt.prefetch_on_wake = rng.NextBounded(2) == 0;
    const uint32_t nthreads = cfg.num_cores * cfg.hwt.threads_per_core;
    // Per-thread programs and priorities, drawn once and shared by both runs.
    // Short computes next to long ones make threads leave and rejoin quiet
    // stretches with the round-robin cursor mid-turn, and half the threads
    // follow each load with a compute.
    std::vector<std::vector<Op>> programs(nthreads);
    std::vector<uint64_t> prio(nthreads);
    for (uint32_t t = 0; t < nthreads; t++) {
      prio[t] = rng.NextRange(1, 4);
      const uint64_t len = rng.NextRange(2, 8);
      const bool load_then_compute = round_robin_heavy || rng.NextBounded(2) == 0;
      for (uint64_t i = 0; i < len; i++) {
        const uint64_t r = rng.NextBounded(10);
        if (load_then_compute) {
          programs[t].push_back({3, rng.NextBounded(4)});
          programs[t].push_back(
              {0, round_robin_heavy ? rng.NextRange(8, 40) : rng.NextRange(20, 400)});
        } else if (r < 6) {
          programs[t].push_back(
              {0, rng.NextBounded(2) == 0 ? rng.NextRange(20, 400) : rng.NextRange(1, 12)});
        } else {
          programs[t].push_back({static_cast<uint8_t>(r < 8 ? 1 : r - 6), rng.NextBounded(4)});
        }
      }
    }
    // Both sides run side by side, compared at every checkpoint.
    struct Side {
      std::unique_ptr<Machine> m;
      std::vector<Rec> log;
    };
    auto boot = [&](Side& side) {
      side.m = std::make_unique<Machine>(cfg);
      Machine& m = *side.m;
      for (uint32_t t = 0; t < nthreads; t++) {
        const std::vector<Op>* program = &programs[t];
        const Ptid ptid = m.BindNative(
            t / cfg.hwt.threads_per_core, t % cfg.hwt.threads_per_core,
            [&, &m = *side.m, &log = side.log, program, t](GuestContext& ctx) -> GuestTask {
              uint64_t stores = 0;
              for (;;) {
                for (const Op& op : *program) {
                  const Addr flag = kFlags + 64 * op.arg;
                  uint64_t result = 0;
                  switch (op.kind) {
                    case 0:
                      result = co_await ctx.Compute(op.arg);
                      break;
                    case 1:
                      result = co_await ctx.Store(flag, (uint64_t{t} << 32) | ++stores);
                      break;
                    case 2:
                      co_await ctx.Monitor(flag);
                      co_await ctx.Load(flag);
                      result = co_await ctx.Mwait();
                      break;
                    default:
                      result = co_await ctx.Load(flag);
                      break;
                  }
                  log.push_back({ctx.ptid(), m.sim().now(), op.kind, result,
                                 round_robin(m.threads().queue(t / cfg.hwt.threads_per_core),
                                             cfg.hwt.threads_per_core)});
                  // A heap event next tick that touches nothing: it ends the
                  // core's in-place tick chain, so a quiet stretch this op
                  // may begin is stepped in bulk from its first tick, one
                  // core alone included.
                  m.sim().queue().ScheduleFnAfter(1, [] {});
                }
              }
            },
            /*supervisor=*/true);
        m.threads().thread(ptid).arch().prio = prio[t];
        m.Start(ptid);
      }
    };
    // Per core: counters and round-robin state; then the next event tick.
    auto snapshot = [&](Machine& m) {
      std::vector<uint64_t> snap;
      for (uint32_t c = 0; c < cfg.num_cores; c++) {
        const std::string core = "cpu.core" + std::to_string(c);
        for (const char* stat : {".instructions", ".active_cycles", ".idle_wakeups"}) {
          snap.push_back(m.sim().stats().GetCounter(core + stat));
        }
        snap.push_back(round_robin(m.threads().queue(c), cfg.hwt.threads_per_core));
      }
      snap.push_back(m.sim().queue().NextTick());
      return snap;
    };
    Side bulk;
    Side ref;
    boot(bulk);
    boot(ref);
    EventQueue& q = ref.m->sim().queue();
    for (Tick until = kCheckpoint; until <= kHorizon; until += kCheckpoint) {
      bulk.m->RunUntil(until);
      while (q.NextTick() <= until && q.RunOne()) {
      }
      ASSERT_EQ(bulk.log, ref.log) << "seed " << seed << " at " << until;
      ASSERT_EQ(snapshot(*bulk.m), snapshot(*ref.m)) << "seed " << seed << " at " << until;
    }
    fewer_dispatches += bulk.m->sim().queue().events_fired() < q.events_fired();
    for (uint32_t c = 0; c < cfg.num_cores; c++) {
      waiting_stretches += bulk.m->core(c).quiet_steps_with_waiters();
    }
  }
  // The workloads really exercise the fast paths, quiet stretches beside a
  // thread waiting on a load included.
  EXPECT_GT(fewer_dispatches, kSeeds / 2);
  EXPECT_GT(waiting_stretches, 100 * kSeeds);
}

}  // namespace
}  // namespace casc
