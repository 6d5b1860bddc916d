// Tests for the baseline (conventional) architecture model: scheduler
// dispatch, context-switch costs, blocking/wakeup, IRQ delivery and
// preemption, quantum round robin, syscall mode switches, VM-exits, and
// the storage finished threads leave behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "src/baseline/baseline_machine.h"
#include "src/dev/apic_timer.h"
#include "src/dev/nic.h"
#include "src/sim/rng.h"

namespace casc {
namespace {

TEST(BaselineTest, RunsThreadToCompletion) {
  BaselineMachine m;
  bool done = false;
  m.cpu(0).Spawn(
      "worker",
      [](SoftContext& ctx) -> GuestTask {
        co_await ctx.Compute(1000);
        co_await ctx.Store(0x5000, 99);
      },
      [&] { done = true; });
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_TRUE(done);
  EXPECT_EQ(m.mem().phys().Read64(0x5000), 99u);
  // Dispatch + ~1000 compute + store: plausible envelope.
  EXPECT_GE(m.sim().now(), 1000u);
  EXPECT_LT(m.sim().now(), 3000u);
  EXPECT_EQ(m.cpu(0).context_switches(), 1u);
}

TEST(BaselineTest, ContextSwitchChargesRealCost) {
  // Two threads that each block once force switches; compare busy time with
  // a single-thread run of the same total compute.
  BaselineMachineConfig cfg;
  BaselineMachine m(cfg);
  SoftThread* a = nullptr;
  SoftThread* b = nullptr;
  a = m.cpu(0).Spawn("a", [&](SoftContext& ctx) -> GuestTask {
    co_await ctx.Compute(100);
    co_await ctx.Block();
    co_await ctx.Compute(100);
  });
  b = m.cpu(0).Spawn("b", [&](SoftContext& ctx) -> GuestTask {
    co_await ctx.Compute(100);
    m.cpu(0).Wake(a);  // host-side wakeup (kernel would do this)
    co_await ctx.Compute(100);
  });
  (void)b;
  ASSERT_TRUE(m.RunToQuiescence());
  // 400 cycles of compute, but switches/dispatches add hundreds of cycles.
  EXPECT_GT(m.sim().now(), 600u);
  EXPECT_GE(m.cpu(0).context_switches(), 3u);
}

TEST(BaselineTest, BlockedThreadDoesNotRunUntilWoken) {
  BaselineMachine m;
  int order = 0;
  int blocked_done_order = 0;
  int other_done_order = 0;
  SoftThread* blocked = m.cpu(0).Spawn(
      "blocked",
      [](SoftContext& ctx) -> GuestTask {
        co_await ctx.Block();
        co_await ctx.Compute(10);
      },
      [&] { blocked_done_order = ++order; });
  m.cpu(0).Spawn(
      "other",
      [&](SoftContext& ctx) -> GuestTask {
        co_await ctx.Compute(5000);
        m.cpu(0).Wake(blocked);
        co_await ctx.Compute(10);
      },
      [&] { other_done_order = ++order; });
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(other_done_order, 1);
  EXPECT_EQ(blocked_done_order, 2);
}

TEST(BaselineTest, IrqPreemptsRunningThread) {
  BaselineMachine m;
  Tick handled_at = 0;
  m.cpu(0).SetIrqHandler(7, [&] {
    handled_at = m.sim().now();
    return 100;  // handler body cycles
  });
  m.cpu(0).Spawn("spinner", [](SoftContext& ctx) -> GuestTask {
    co_await ctx.Compute(1'000'000);
  });
  m.RunFor(10000);  // spinner mid-compute
  const Tick raised_at = m.sim().now();
  m.cpu(0).RaiseIrq(7);
  m.RunFor(5000);
  ASSERT_NE(handled_at, 0u);
  // Detected at the next op boundary (<= check interval) + IRQ entry.
  EXPECT_LE(handled_at - raised_at, kOpCheckInterval + kIrqEntryCycles + 5);
  EXPECT_EQ(m.cpu(0).irqs_handled(), 1u);
}

TEST(BaselineTest, IdleWakeAddsLatency) {
  BaselineMachine m;
  Tick handled_at = 0;
  m.cpu(0).SetIrqHandler(7, [&] {
    handled_at = m.sim().now();
    return 0;
  });
  m.RunFor(1000);  // cpu idle
  const Tick raised_at = m.sim().now();
  m.cpu(0).RaiseIrq(7);
  m.RunFor(5000);
  ASSERT_NE(handled_at, 0u);
  EXPECT_GE(handled_at - raised_at, kIdleWakeCycles);
}

TEST(BaselineTest, QuantumRoundRobinInterleaves) {
  BaselineMachineConfig cfg;
  cfg.cpu.quantum = 1000;
  BaselineMachine m(cfg);
  std::vector<int> finish_order;
  for (int i = 0; i < 2; i++) {
    m.cpu(0).Spawn(
        "t" + std::to_string(i),
        [](SoftContext& ctx) -> GuestTask { co_await ctx.Compute(5000); },
        [&finish_order, i] { finish_order.push_back(i); });
  }
  ASSERT_TRUE(m.RunToQuiescence());
  ASSERT_EQ(finish_order.size(), 2u);
  // With timeslicing both finish near the end; many switches occurred.
  EXPECT_GE(m.cpu(0).context_switches(), 5u);
}

// A quantum at or below the switch-in cost still makes progress: each
// dispatch takes a step before quantum preemption can take the thread off
// the core. Without that step both threads are preempted at every dispatch
// and neither finishes, so the run is bounded by ticks, not by quiescence.
TEST(BaselineTest, QuantumBelowSwitchCostStillFinishes) {
  BaselineMachineConfig cfg;
  cfg.cpu.quantum = 100;
  BaselineMachine m(cfg);
  int finished = 0;
  for (int i = 0; i < 2; i++) {
    m.cpu(0).Spawn(
        "t" + std::to_string(i),
        [](SoftContext& ctx) -> GuestTask { co_await ctx.Compute(500); },
        [&finished] { finished++; });
  }
  m.RunFor(1'000'000);
  EXPECT_EQ(finished, 2);
  // Every step of 10 compute cycles ends its dispatch.
  EXPECT_GE(m.cpu(0).context_switches(), 50u);
}

TEST(BaselineTest, FcfsRunsToCompletion) {
  BaselineMachineConfig cfg;
  cfg.cpu.quantum = 0;  // run to completion
  BaselineMachine m(cfg);
  std::vector<int> finish_order;
  std::vector<Tick> finish_time;
  for (int i = 0; i < 2; i++) {
    m.cpu(0).Spawn(
        "t" + std::to_string(i),
        [](SoftContext& ctx) -> GuestTask { co_await ctx.Compute(5000); },
        [&, i] {
          finish_order.push_back(i);
          finish_time.push_back(m.sim().now());
        });
  }
  ASSERT_TRUE(m.RunToQuiescence());
  ASSERT_EQ(finish_order, (std::vector<int>{0, 1}));
  // Strictly serial: second finishes ~5000 cycles after the first.
  EXPECT_GE(finish_time[1] - finish_time[0], 5000u);
  EXPECT_EQ(m.cpu(0).context_switches(), 2u);
}

TEST(BaselineTest, SyscallModeSwitchCost) {
  BaselineMachine m;
  Tick with_syscall = 0;
  m.cpu(0).Spawn(
      "sys",
      [](SoftContext& ctx) -> GuestTask {
        co_await ctx.EnterKernel();
        co_await ctx.Compute(50);  // kernel work
        co_await ctx.ExitKernel();
      },
      [&] { with_syscall = m.sim().now(); });
  ASSERT_TRUE(m.RunToQuiescence());

  BaselineMachine m2;
  Tick without_syscall = 0;
  m2.cpu(0).Spawn(
      "plain",
      [](SoftContext& ctx) -> GuestTask { co_await ctx.Compute(50); },
      [&] { without_syscall = m2.sim().now(); });
  ASSERT_TRUE(m2.RunToQuiescence());
  const Tick overhead = with_syscall - without_syscall;
  EXPECT_GE(overhead, kSyscallEntryCycles + kSyscallExitCycles);
  EXPECT_LT(overhead, 500u);
}

TEST(BaselineTest, KernelFpUseInflatesSyscalls) {
  BaselineMachineConfig plain_cfg;
  BaselineMachineConfig fp_cfg;
  fp_cfg.cpu.kernel_uses_fp = true;
  Tick plain_done = 0;
  Tick fp_done = 0;
  auto body = [](SoftContext& ctx) -> GuestTask {
    for (int i = 0; i < 100; i++) {
      co_await ctx.EnterKernel();
      co_await ctx.Compute(10);
      co_await ctx.ExitKernel();
    }
  };
  BaselineMachine m1(plain_cfg);
  m1.cpu(0).Spawn("p", body, [&] { plain_done = m1.sim().now(); });
  ASSERT_TRUE(m1.RunToQuiescence());
  BaselineMachine m2(fp_cfg);
  m2.cpu(0).Spawn("f", body, [&] { fp_done = m2.sim().now(); });
  ASSERT_TRUE(m2.RunToQuiescence());
  EXPECT_GT(fp_done, plain_done);
}

TEST(BaselineTest, VmExitRoundTripCost) {
  BaselineMachine m;
  Tick done = 0;
  m.cpu(0).Spawn(
      "guest",
      [](SoftContext& ctx) -> GuestTask {
        co_await ctx.VmExit();
        co_await ctx.Compute(100);  // hypervisor work in root mode
        co_await ctx.VmEnter();
      },
      [&] { done = m.sim().now(); });
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_GE(done, kVmExitCycles + kVmEntryCycles + 100);
}

TEST(BaselineTest, NicIrqWakesBlockedThreadEndToEnd) {
  // The baseline I/O path (E2/E3 comparator): NIC IRQ -> handler wakes the
  // blocked server thread -> scheduler dispatches it.
  BaselineMachine m;
  Nic nic(m.sim(), m.mem(), NicConfig{}, &m.cpu(0));
  SoftThread* server = nullptr;
  Tick handled_at = 0;
  server = m.cpu(0).Spawn("server", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      co_await ctx.Block();
      co_await ctx.Load(0x110000);  // read the frame
      handled_at = m.sim().now();
    }
  });
  m.cpu(0).SetIrqHandler(NicConfig{}.irq_vector, [&] {
    m.cpu(0).Wake(server);
    return 200;  // driver work in the handler
  });
  // Post one RX buffer + enable IRQs.
  uint8_t raw[16] = {};
  const Addr buf = 0x110000;
  memcpy(raw, &buf, 8);
  m.mem().phys().Write(0x100000, raw, 16);
  m.mem().Write(0, NicConfig{}.mmio_base + kNicRxBase, 8, 0x100000);
  m.mem().Write(0, NicConfig{}.mmio_base + kNicRxSize, 8, 8);
  m.mem().Write(0, NicConfig{}.mmio_base + kNicIrqEnable, 8, 1);

  m.RunFor(2000);  // server blocks; cpu idles
  const Tick inject_at = m.sim().now();
  nic.InjectFrame({1, 2, 3});
  m.RunFor(20000);
  ASSERT_NE(handled_at, 0u);
  const Tick latency = handled_at - inject_at;
  // DMA + idle wake + IRQ entry + handler + IRQ exit + dispatch (switch-in):
  // far more than the HTM mwait path measured in DeviceIntegrationTest.
  EXPECT_GT(latency, kNicRxDmaLatency + 1000);
}

TEST(BaselineTest, ManyThreadsAllComplete) {
  BaselineMachineConfig cfg;
  cfg.cpu.quantum = 2000;
  BaselineMachine m(cfg);
  int done = 0;
  for (int i = 0; i < 50; i++) {
    m.cpu(0).Spawn(
        "t" + std::to_string(i),
        [](SoftContext& ctx) -> GuestTask {
          co_await ctx.Compute(500);
          co_await ctx.Yield();
          co_await ctx.Compute(500);
        },
        [&] { done++; });
  }
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(done, 50);
}

TEST(BaselineTest, MultipleIrqVectorsDispatchInOrder) {
  BaselineMachine m;
  std::vector<uint32_t> handled;
  for (uint32_t v : {3u, 4u, 5u}) {
    m.cpu(0).SetIrqHandler(v, [&handled, v] {
      handled.push_back(v);
      return 50;
    });
  }
  m.cpu(0).RaiseIrq(4);
  m.cpu(0).RaiseIrq(3);
  m.cpu(0).RaiseIrq(5);
  m.RunFor(20000);
  EXPECT_EQ(handled, (std::vector<uint32_t>{4, 3, 5}));
  EXPECT_EQ(m.cpu(0).irqs_handled(), 3u);
}

TEST(BaselineTest, YieldWithEmptyRunqueueContinues) {
  BaselineMachine m;
  Tick done = 0;
  m.cpu(0).Spawn(
      "solo",
      [](SoftContext& ctx) -> GuestTask {
        for (int i = 0; i < 10; i++) {
          co_await ctx.Compute(100);
          co_await ctx.Yield();  // nobody else: keeps running, no switch
        }
      },
      [&] { done = m.sim().now(); });
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_GT(done, 1000u);
  EXPECT_EQ(m.cpu(0).context_switches(), 1u);  // only the initial dispatch
}

TEST(BaselineTest, AtomicAddSerializedByCpu) {
  BaselineMachine m;
  int finished = 0;
  for (int t = 0; t < 4; t++) {
    m.cpu(0).Spawn(
        "adder",
        [](SoftContext& ctx) -> GuestTask {
          for (int i = 0; i < 25; i++) {
            co_await ctx.AtomicAdd(0x9000, 1);
          }
        },
        [&] { finished++; });
  }
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(finished, 4);
  EXPECT_EQ(m.mem().phys().Read64(0x9000), 100u);
}

TEST(BaselineTest, WakeOnFinishedThreadIsNoOp) {
  BaselineMachine m;
  SoftThread* t = m.cpu(0).Spawn("short", [](SoftContext& ctx) -> GuestTask {
    co_await ctx.Compute(10);
  });
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(t->state(), SoftThread::State::kFinished);
  m.cpu(0).Wake(t);  // must not re-enqueue a finished thread
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(t->state(), SoftThread::State::kFinished);
}

// The record a finished thread leaves behind holds its state and TCB only.
static_assert(sizeof(SoftThread) <= 32);

// A dispatcher serves 20,000 short requests in bursts of 1-3 threads. The
// CPU holds an execution block per thread alive at once, not per thread
// spawned, while every record stays readable and keeps the TCB its spawn
// order gives it.
TEST(BaselineTest, FinishedThreadsReturnTheirBlocks) {
  constexpr uint32_t kRequests = 20000;
  BaselineMachineConfig cfg;
  cfg.num_cpus = 2;
  BaselineMachine m(cfg);
  BaselineCpu& cpu = m.cpu(1);
  std::vector<SoftThread*> spawned;
  size_t alive = 0;
  size_t max_alive = 0;
  auto spawn = [&](SoftThread::Body body, std::function<void()> on_finish) {
    spawned.push_back(cpu.Spawn("t", std::move(body), std::move(on_finish)));
    max_alive = std::max(max_alive, ++alive);
    return spawned.back();
  };
  SoftThread* dispatcher = nullptr;
  uint32_t in_burst = 0;
  uint32_t served = 0;
  dispatcher = spawn(
      [&](SoftContext& ctx) -> GuestTask {
        for (uint32_t sent = 0, burst = 0; sent < kRequests; burst++) {
          for (uint32_t j = std::min(1 + burst % 3, kRequests - sent); j > 0; j--, sent++) {
            in_burst++;
            spawn(
                [&served, sent](SoftContext& wctx) -> GuestTask {
                  co_await wctx.Compute(20 + sent % 7);
                  co_await wctx.Store(0x5000, sent);
                  served++;
                },
                [&] {
                  alive--;
                  if (--in_burst == 0) {
                    cpu.Wake(dispatcher);
                  }
                });
          }
          while (in_burst > 0) {
            co_await ctx.Block();
          }
        }
      },
      [&] { alive--; });
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(served, kRequests);
  EXPECT_EQ(alive, 0u);
  ASSERT_EQ(spawned.size(), kRequests + 1);
  EXPECT_EQ(max_alive, 4u);  // the dispatcher and a burst of 3
  EXPECT_EQ(cpu.exec_blocks(), max_alive);
  for (uint32_t k = 0; k < spawned.size(); k++) {
    ASSERT_EQ(spawned[k]->state(), SoftThread::State::kFinished) << "thread " << k;
    ASSERT_EQ(spawned[k]->tcb(), kTcbBase + (Addr{1} << 20) + Addr{k} * 1024) << "thread " << k;
  }
}

// A pointer kept past its thread's end must not reach whichever thread runs
// in that thread's place later.
TEST(BaselineTest, StaleWakeNeverReachesANewThread) {
  BaselineMachine m;
  SoftThread* stale = m.cpu(0).Spawn("short", [](SoftContext& ctx) -> GuestTask {
    co_await ctx.Compute(10);
  });
  ASSERT_TRUE(m.RunToQuiescence());
  ASSERT_EQ(stale->state(), SoftThread::State::kFinished);
  bool resumed = false;
  SoftThread* sleeper = m.cpu(0).Spawn("sleeper", [&](SoftContext& ctx) -> GuestTask {
    co_await ctx.Block();
    resumed = true;
  });
  ASSERT_TRUE(m.RunToQuiescence());
  ASSERT_EQ(sleeper->state(), SoftThread::State::kBlocked);
  m.cpu(0).Wake(stale);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_FALSE(resumed);
  EXPECT_EQ(sleeper->state(), SoftThread::State::kBlocked);
  EXPECT_EQ(stale->state(), SoftThread::State::kFinished);
}

// An on_finish that spawns runs from its thread's block, so the new thread
// must get another one; the callback's captures (here on the heap) must
// outlive its Spawn.
TEST(BaselineTest, OnFinishThatSpawnsKeepsItsBlock) {
  BaselineMachine m;
  BaselineCpu& cpu = m.cpu(0);
  const std::string tag(64, 'x');
  std::string seen;
  SoftThread* child = nullptr;
  cpu.Spawn(
      "parent", [](SoftContext& ctx) -> GuestTask { co_await ctx.Compute(10); },
      [&, tag] {
        child = cpu.Spawn("child", [](SoftContext& ctx) -> GuestTask {
          co_await ctx.Compute(10);
        });
        seen = tag;
      });
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(seen, tag);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->state(), SoftThread::State::kFinished);
  EXPECT_EQ(cpu.exec_blocks(), 2u);
}

// What a differential run observes: every op completion and IRQ handler
// entry as (tick, who, what), per-cpu counters, the final tick and the
// number of dispatched events.
struct StepTrace {
  std::vector<std::tuple<Tick, uint32_t, uint32_t>> log;
  std::vector<uint64_t> counters;
  Tick final_tick = 0;
  uint64_t events = 0;
};

// One random scenario on 1-2 cpus, built from `seed` alone. With
// `one_dispatch` it runs as a RunOne loop, which never advances in place;
// otherwise as RunUntil segments (some ending mid-compute) and a RunAll.
StepTrace RunSteppingScenario(uint64_t seed, bool one_dispatch) {
  enum class OpKind { kCompute, kLoad, kStore, kYield, kBlock, kWake, kSpawn, kRaise };
  struct Op {
    OpKind kind;
    uint64_t arg;
  };
  Rng rng(seed);
  BaselineMachineConfig cfg;
  cfg.num_cpus = static_cast<uint32_t>(rng.NextRange(1, 2));
  const uint64_t quantum_kind = rng.NextBounded(3);
  // A small quantum may fall below the switch-in cost, where each dispatch
  // takes one step before it is preempted.
  cfg.cpu.quantum = quantum_kind == 0 ? 0 : quantum_kind == 1 ? rng.NextRange(100, 2500) : 30000;
  BaselineMachine m(cfg);
  StepTrace tr;
  auto log = [&tr, &m](uint32_t who, uint32_t what) {
    tr.log.emplace_back(m.sim().now(), who, what);
  };
  // Compute lengths sit on, just below and just above multiples of the
  // chunk size, with some long enough to cross a quantum.
  auto compute_len = [&rng] {
    const Tick base = kOpCheckInterval * rng.NextBounded(rng.NextBool(0.3) ? 400 : 40);
    const Tick off = rng.NextBounded(4);  // 0, +1, +2 or -1
    return off == 3 ? (base == 0 ? 0 : base - 1) : base + off;
  };

  std::vector<std::pair<CoreId, SoftThread*>> threads;
  const uint32_t nthreads = static_cast<uint32_t>(rng.NextRange(1, 5));
  for (uint32_t t = 0; t < nthreads; t++) {
    const CoreId cpu = static_cast<CoreId>(rng.NextBounded(cfg.num_cpus));
    std::vector<Op> ops;
    const uint64_t nops = rng.NextRange(3, 12);
    for (uint64_t i = 0; i < nops; i++) {
      const uint64_t r = rng.NextBounded(100);
      if (r < 50) {
        ops.push_back({OpKind::kCompute, compute_len()});
      } else if (r < 60) {
        ops.push_back({OpKind::kLoad, 0x200000 + 8 * rng.NextBounded(64)});
      } else if (r < 70) {
        ops.push_back({OpKind::kStore, 0x200000 + 8 * rng.NextBounded(64)});
      } else if (r < 78) {
        ops.push_back({OpKind::kYield, 0});
      } else if (r < 86) {
        ops.push_back({OpKind::kBlock, 0});
      } else if (r < 91) {
        ops.push_back({OpKind::kWake, rng.NextBounded(nthreads)});
      } else if (r < 96) {
        ops.push_back({OpKind::kRaise, compute_len()});
      } else {
        ops.push_back({OpKind::kSpawn, compute_len()});
      }
    }
    SoftThread* thread = m.cpu(cpu).Spawn(
        "t" + std::to_string(t),
        [&, t, cpu, ops](SoftContext& ctx) -> GuestTask {
          for (uint32_t i = 0; i < ops.size(); i++) {
            const Op& op = ops[i];
            switch (op.kind) {
              case OpKind::kCompute:
                co_await ctx.Compute(op.arg);
                break;
              case OpKind::kLoad:
                co_await ctx.Load(op.arg);
                break;
              case OpKind::kStore:
                co_await ctx.Store(op.arg, i);
                break;
              case OpKind::kYield:
                co_await ctx.Yield();
                break;
              case OpKind::kBlock:
                co_await ctx.Block();
                break;
              case OpKind::kWake: {
                const auto& [wcpu, wthread] = threads[op.arg];
                m.cpu(wcpu).Wake(wthread);
                co_await ctx.Compute(1);
                break;
              }
              case OpKind::kSpawn: {
                const uint32_t child = 1000 + t * 100 + i;
                const Tick len = op.arg;
                m.cpu(cpu).Spawn(
                    "child",
                    [&log, child, len](SoftContext& cctx) -> GuestTask {
                      co_await cctx.Compute(len);
                      log(child, 0);
                      co_await cctx.Store(0x210000, child);
                      log(child, 1);
                    },
                    [&log, child] { log(child, 2); });
                co_await ctx.Compute(1);
                break;
              }
              case OpKind::kRaise:
                // Arms step_event_ kIdleWakeCycles out, from inside a step,
                // ahead of a compute op in the same step.
                m.cpu(cpu).RaiseIrq(1);
                co_await ctx.Compute(op.arg);
                break;
            }
            log(t, i);
          }
        },
        [&log, t] { log(t, 999); });
    threads.emplace_back(cpu, thread);
  }

  // IRQ handlers log their entry; vector 2's also wakes one of the cpu's
  // threads if it is blocked, round robin.
  for (CoreId c = 0; c < cfg.num_cpus; c++) {
    const Tick cycles = rng.NextRange(0, 600);
    m.cpu(c).SetIrqHandler(1, [&log, c, cycles] {
      log(2000 + c, 1);
      return cycles;
    });
    m.cpu(c).SetIrqHandler(2, [&, c, cycles, next = size_t{0}]() mutable {
      log(2000 + c, 2);
      for (size_t k = 0; k < threads.size(); k++) {
        const auto& [tcpu, thread] = threads[(next + k) % threads.size()];
        if (tcpu == c && thread->state() == SoftThread::State::kBlocked) {
          m.cpu(c).Wake(thread);
          next = (next + k + 1) % threads.size();
          break;
        }
      }
      return cycles;
    });
  }
  // One-shot IRQs on one tick phase mod kOpCheckInterval and next to it, so
  // that some land on chunk boundaries and some a cycle either side.
  const Tick phase = rng.NextBounded(kOpCheckInterval);
  const uint64_t nirqs = rng.NextRange(0, 12);
  for (uint64_t i = 0; i < nirqs; i++) {
    const Tick at = kOpCheckInterval * rng.NextRange(1, 1500) + phase + rng.NextBounded(3) - 1;
    const CoreId c = static_cast<CoreId>(rng.NextBounded(cfg.num_cpus));
    const uint32_t vector = static_cast<uint32_t>(rng.NextRange(1, 2));
    m.sim().queue().ScheduleFn(at, [&m, c, vector] { m.cpu(c).RaiseIrq(vector); });
  }
  std::vector<Tick> limits;
  for (uint64_t i = rng.NextRange(0, 6); i > 0; i--) {
    limits.push_back(rng.NextRange(1, 15000));
  }
  std::sort(limits.begin(), limits.end());

  EventQueue& q = m.sim().queue();
  if (one_dispatch) {
    while (q.RunOne()) {
    }
    // RunUntil leaves the clock at its limit at least.
    tr.final_tick = std::max(m.sim().now(), limits.empty() ? 0 : limits.back());
  } else {
    for (Tick limit : limits) {
      q.RunUntil(limit);
    }
    q.RunAll();
    tr.final_tick = m.sim().now();
  }
  tr.events = q.events_fired();
  for (CoreId c = 0; c < cfg.num_cpus; c++) {
    tr.counters.push_back(m.sim().stats().GetCounter(
        "baseline.cpu" + std::to_string(c) + ".busy_cycles"));
    tr.counters.push_back(m.cpu(c).context_switches());
    tr.counters.push_back(m.cpu(c).irqs_handled());
  }
  return tr;
}

// A worker computes 10000 cycles; an IRQ raised at tick 3000 runs a
// 200-cycle handler that may Wake a blocked thread. Returns the worker's
// finish tick and the cpu's busy_cycles.
std::pair<Tick, uint64_t> RunWakingIrqProbe(bool wake, bool one_dispatch) {
  BaselineMachine m;
  Tick done = 0;
  SoftThread* sleeper = m.cpu(0).Spawn(
      "sleeper", [](SoftContext& ctx) -> GuestTask { co_await ctx.Block(); });
  m.cpu(0).Spawn(
      "worker", [](SoftContext& ctx) -> GuestTask { co_await ctx.Compute(10000); },
      [&] { done = m.sim().now(); });
  m.cpu(0).SetIrqHandler(1, [&] {
    if (wake) {
      m.cpu(0).Wake(sleeper);
    }
    return Tick{200};
  });
  m.sim().queue().ScheduleFn(3000, [&] { m.cpu(0).RaiseIrq(1); });
  if (one_dispatch) {
    while (m.sim().queue().RunOne()) {
    }
  } else {
    m.sim().queue().RunAll();
  }
  return {done, m.sim().stats().GetCounter("baseline.cpu0.busy_cycles")};
}

// Step's in-place chain and ComputeCycles' closed-form chunks must leave
// every tick where one-dispatch-per-step stepping puts it.
TEST(BaselineTest, InPlaceSteppingMatchesOneDispatchStepping) {
  // Both modes share the pull-earlier rule, so pin it first: the handler's
  // Wake arms the step one cycle out and the IRQ's own delay cannot push it
  // later, so the IRQ costs 1 cycle of timeline while busy_cycles charges
  // all 750. These ticks are the one-step-per-dispatch model's.
  for (bool one_dispatch : {true, false}) {
    EXPECT_EQ(RunWakingIrqProbe(false, one_dispatch), std::make_pair(Tick{12099}, uint64_t{12098}));
    EXPECT_EQ(RunWakingIrqProbe(true, one_dispatch), std::make_pair(Tick{11350}, uint64_t{12510}));
  }
  uint64_t events_in_place = 0;
  uint64_t events_one_dispatch = 0;
  for (uint64_t seed = 1; seed <= 300; seed++) {
    const StepTrace ref = RunSteppingScenario(seed, /*one_dispatch=*/true);
    const StepTrace got = RunSteppingScenario(seed, /*one_dispatch=*/false);
    ASSERT_EQ(got.log, ref.log) << "seed " << seed;
    ASSERT_EQ(got.counters, ref.counters) << "seed " << seed;
    ASSERT_EQ(got.final_tick, ref.final_tick) << "seed " << seed;
    events_in_place += got.events;
    events_one_dispatch += ref.events;
  }
  // The in-place paths really ran: most steps took no dispatch.
  EXPECT_LT(events_in_place * 2, events_one_dispatch);
}

}  // namespace
}  // namespace casc
