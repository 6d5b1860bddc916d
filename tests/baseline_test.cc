// Tests for the baseline (conventional) architecture model: scheduler
// dispatch, context-switch costs, blocking/wakeup, IRQ delivery and
// preemption, quantum round robin, syscall mode switches, and VM-exits.
#include <gtest/gtest.h>

#include "src/baseline/baseline_machine.h"
#include "src/dev/apic_timer.h"
#include "src/dev/nic.h"

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

}  // namespace
}  // namespace casc
