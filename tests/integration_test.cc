// Integration tests: whole-stack scenarios combining devices, runtime
// services, exceptions, the hypervisor, and multiple cores.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cpu/machine.h"
#include "src/dev/apic_timer.h"
#include "src/dev/block_dev.h"
#include "src/dev/fabric.h"
#include "src/dev/msix.h"
#include "src/dev/nic.h"
#include "src/runtime/hypervisor.h"
#include "src/runtime/rpc.h"
#include "src/runtime/services.h"
#include "src/runtime/syscall_layer.h"

namespace casc {
namespace {

TEST(IntegrationTest, KvServiceUnderTimerInterference) {
  // A KV service keeps serving while a timer thread fires every microsecond
  // on the same core — interrupt-free interference.
  Machine m;
  ApicTimerConfig tcfg;
  tcfg.period = 3000;
  tcfg.counter_addr = 0x7000;
  ApicTimer timer(m.sim(), m.mem(), tcfg);
  uint64_t timer_events = 0;
  const Ptid tick_thread = m.BindNative(
      0, 5,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Monitor(0x7000);
        for (;;) {
          co_await ctx.Mwait();
          timer_events++;
          co_await ctx.Compute(200);
        }
      },
      true);
  const Channel ch{0x00400000};
  const HashTableRef table{0x00500000, 1024};
  const Ptid server = m.BindNative(0, 0, MakeSyscallServer(ch, MakeKvHandler(table)), true);
  uint64_t sum = 0;
  const Ptid app = m.BindNative(
      0, 1,
      [&](GuestContext& ctx) -> GuestTask {
        for (uint64_t k = 1; k <= 30; k++) {
          uint64_t ret = 0;
          co_await ctx.Call(SyscallCall(ctx, ch, {.nr = kKvPut, .a0 = k, .a1 = k * k}, &ret));
          co_await ctx.Call(SyscallCall(ctx, ch, {.nr = kKvGet, .a0 = k}, &ret));
          sum += ret;
        }
      },
      false);
  m.Start(tick_thread);
  m.Start(server);
  m.Start(app);
  timer.StartTimer();
  m.RunFor(3'000'000);
  timer.StopTimer();
  uint64_t expect = 0;
  for (uint64_t k = 1; k <= 30; k++) {
    expect += k * k;
  }
  EXPECT_EQ(sum, expect);
  EXPECT_GT(timer_events, 100u);
  EXPECT_FALSE(m.halted());
}

TEST(IntegrationTest, CrossCoreServiceCalls) {
  // App on core 0, KV service on core 1: doorbells and wakeups cross the
  // interconnect; data moves through the shared L3.
  MachineConfig cfg;
  cfg.num_cores = 2;
  Machine m(cfg);
  const Channel ch{0x00400000};
  const HashTableRef table{0x00500000, 256};
  table.HostPut(m.mem().phys(), 11, 1111);
  const Ptid server =
      m.BindNative(1, 0, MakeSyscallServer(ch, MakeKvHandler(table)), /*supervisor=*/true);
  uint64_t got = 0;
  const Ptid app = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Call(SyscallCall(ctx, ch, {.nr = kKvGet, .a0 = 11}, &got));
      },
      false);
  m.Start(server);
  m.Start(app);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(got, 1111u);
}

TEST(IntegrationTest, NicAndBlockDeviceConcurrently) {
  // Two independent service threads: one blocks on the NIC RX tail, one on
  // the block device CQ tail. Both make progress concurrently.
  Machine m;
  Nic nic(m.sim(), m.mem(), NicConfig{});
  BlockDevice disk(m.sim(), m.mem(), BlockConfig{});
  disk.storage().Write64(0, 0x5151);
  const NicRings rings = SetupNicRings(m.mem(), nic, 0x02000000);

  BlockDriver drv;
  drv.mmio_base = BlockConfig{}.mmio_base;
  drv.sq_base = 0x00600000;
  drv.sq_size = 16;
  drv.cq_tail = 0x00601000;
  drv.state = 0x00601040;
  m.mem().Write(0, drv.mmio_base + kBlkSqBase, 8, drv.sq_base);
  m.mem().Write(0, drv.mmio_base + kBlkSqSize, 8, drv.sq_size);
  m.mem().Write(0, drv.mmio_base + kBlkCqTailAddr, 8, drv.cq_tail);

  uint64_t frames_handled = 0;
  const Ptid net_thread = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        uint64_t seen = 0;
        co_await ctx.Monitor(rings.rx_tail);
        for (;;) {
          const uint64_t tail = co_await ctx.Load(rings.rx_tail);
          while (seen < tail) {
            seen++;
            frames_handled++;
            co_await ctx.Store(nic.config().mmio_base + kNicRxHead, seen);
          }
          co_await ctx.Mwait();
        }
      },
      true);
  uint64_t disk_word = 0;
  const Ptid disk_thread = m.BindNative(
      0, 1,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Call(BlockRead(ctx, drv, 0, 512, 0x00700000));
        disk_word = co_await ctx.Load(0x00700000);
      },
      true);
  m.Start(net_thread);
  m.Start(disk_thread);
  m.RunFor(1000);
  for (int i = 0; i < 3; i++) {
    nic.InjectFrame({1, 2, 3});
    m.RunFor(2000);
  }
  m.RunFor(100000);
  EXPECT_EQ(frames_handled, 3u);
  EXPECT_EQ(disk_word, 0x5151u);
}

TEST(IntegrationTest, HypervisedGuestUsesSyscallService) {
  // A user-mode guest under the hypervisor makes exception-less syscalls to
  // a service while its privileged instructions trap to the hypervisor —
  // the two mechanisms compose.
  Machine m;
  const Channel ch{0x00400000};
  int served = 0;
  const Ptid server = m.BindNative(
      0, 3,
      MakeSyscallServer(ch,
                        [&](GuestContext& c, const SyscallRequest& req,
                            uint64_t* ret) -> GuestTask {
                          co_await c.Compute(20);
                          served++;
                          *ret = req.a0 + 1;
                        }),
      true);
  Hypervisor hyp(m, 0, 0, HypervisorConfig{});
  // Guest (interpreted, user mode): a syscall over the channel — stores,
  // monitor, mwait, no privilege needed — then a privileged csrwr that traps
  // to the hypervisor, which emulates the instruction and restarts us.
  const Ptid guest = m.LoadSource(0, 1,
                                  "  li a1, 0x400000\n"   // channel base
                                  "  li a2, 1\n"
                                  "  sd a2, 128(a1)\n"    // nr = 1
                                  "  li a2, 41\n"
                                  "  sd a2, 136(a1)\n"    // a0 = 41
                                  "  addi a3, a1, 64\n"   // response doorbell
                                  "  monitor a3\n"
                                  "  ld a4, 0(a1)\n"      // request sequence
                                  "  addi a4, a4, 1\n"
                                  "  sd a4, 0(a1)\n"      // ring: wakes the server
                                  "wait:\n"
                                  "  ld a5, 0(a3)\n"
                                  "  bge a5, a4, got\n"
                                  "  mwait\n"
                                  "  j wait\n"
                                  "got:\n"
                                  "  ld a0, 192(a1)\n"    // return value (42)
                                  "  csrwr prio, a0\n"    // privileged -> VM exit
                                  "  hcall 0\n",
                                  /*supervisor=*/false, "", 0, 0x2000);
  hyp.AddGuest(1);
  hyp.Install();
  m.Start(server);
  m.Start(hyp.hyp_ptid());
  m.RunFor(100);
  m.Start(guest);
  m.RunFor(300000);
  EXPECT_EQ(served, 1);
  EXPECT_EQ(hyp.exits_handled(), 1u);
  EXPECT_EQ(hyp.VirtualCsr(0, Csr::kPrio), 42u);
  EXPECT_FALSE(m.halted());
}

TEST(IntegrationTest, NativeGuestFaultRecreatesInstance) {
  // A native program that faults (monitor overflow, no EDP-free halt since
  // we give it one) is disabled; restarting runs a fresh instance.
  MachineConfig cfg;
  cfg.mem.monitor.max_watches_per_thread = 2;
  Machine m(cfg);
  int attempts = 0;
  const Ptid p = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        attempts++;
        co_await ctx.Monitor(0x1000);
        co_await ctx.Monitor(0x2000);
        co_await ctx.Monitor(0x3000);  // overflow -> fault -> disabled
        co_await ctx.Store(0x9000, 1);  // unreachable
      },
      true, /*edp=*/0x30000);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
  EXPECT_EQ(m.mem().phys().Read64(0x9000), 0u);
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(m.mem(), 0x30000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kMonitorOverflow));
  // Restart: fresh instance begins from the top (faulted instances are not
  // resumable).
  m.Start(p);
  m.RunFor(100);
  EXPECT_EQ(attempts, 2);
}

TEST(IntegrationTest, RpcBacklogDrainsWhenOverloaded) {
  // More concurrent requests than workers: the dispatcher queues the excess
  // and completes everything.
  MachineConfig cfg;
  cfg.hwt.threads_per_core = 16;
  Machine m(cfg);
  Nic server_nic(m.sim(), m.mem(), NicConfig{});
  Fabric fabric(m.sim(), FabricConfig{});
  fabric.Attach(1, &server_nic);
  NicConfig ccfg;
  ccfg.mmio_base = 0xf0100000;
  Nic client_nic(m.sim(), m.mem(), ccfg);
  fabric.Attach(9, &client_nic);
  SetupNicRings(m.mem(), client_nic, 0x05000000);
  uint64_t responses = 0;
  uint64_t consumed = 0;
  client_nic.SetRxObserver([&](const std::vector<uint8_t>&) {
    responses++;
    m.mem().Write(0, ccfg.mmio_base + kNicRxHead, 8, ++consumed);
  });
  RpcNode node(m, 0, 1, &server_nic, 0x03000000, /*workers=*/2, RpcMode::kThreadPerRequest);
  node.Install();
  m.RunFor(2000);
  for (uint64_t i = 1; i <= 12; i++) {
    fabric.InjectFrom(9, RpcFrame::Make(1, 9, i, 3000));
  }
  m.RunFor(2'000'000);
  EXPECT_EQ(node.served(), 12u);
  EXPECT_EQ(responses, 12u);
}

// MachineConfig::host_threads and NicConfig::home_core are accepted and
// ignored (the simulator has one engine); the request benchmark still sets
// them. A 4-node RPC fabric on a 4-core machine must give byte-identical
// stats and response arrival ticks whatever values they carry.
TEST(IntegrationTest, HostThreadsAndHomeCoreAreInert) {
  constexpr uint32_t kNodes = 4;
  constexpr uint64_t kClient = 99;
  constexpr uint64_t kRequests = 24;
  auto run = [&](uint32_t host_threads, bool spread_home_cores) {
    MachineConfig cfg;
    cfg.num_cores = kNodes;
    cfg.host_threads = host_threads;
    cfg.hwt.threads_per_core = 16;
    Machine m(cfg);
    Fabric fabric(m.sim(), FabricConfig{});
    NicConfig ccfg;
    ccfg.mmio_base = 0xf0f00000;
    ccfg.home_core = spread_home_cores ? kNodes - 1 : 0;
    Nic client_nic(m.sim(), m.mem(), ccfg);
    fabric.Attach(kClient, &client_nic);
    SetupNicRings(m.mem(), client_nic, 0x20000000);
    uint64_t responses = 0;
    std::string arrivals;  // the tick each response reaches the client
    client_nic.SetRxObserver([&](const std::vector<uint8_t>&) {
      arrivals += std::to_string(m.sim().now()) + " ";
      m.mem().Write(0, ccfg.mmio_base + kNicRxHead, 8, ++responses);
    });
    std::vector<std::unique_ptr<Nic>> nics;
    std::vector<std::unique_ptr<RpcNode>> nodes;
    for (uint32_t n = 0; n < kNodes; n++) {
      NicConfig ncfg;
      ncfg.mmio_base = 0xf0000000 + static_cast<Addr>(n) * 0x100000;
      ncfg.home_core = spread_home_cores ? n : 0;
      nics.push_back(std::make_unique<Nic>(m.sim(), m.mem(), ncfg));
      fabric.Attach(1 + n, nics.back().get());
      nodes.push_back(std::make_unique<RpcNode>(m, n, 1 + n, nics.back().get(),
                                                0x03000000 + static_cast<Addr>(n) * 0x01000000,
                                                /*workers=*/4, RpcMode::kThreadPerRequest));
      nodes.back()->Install();
    }
    m.RunFor(2000);
    for (uint64_t i = 1; i <= kRequests; i++) {
      fabric.InjectFrom(kClient, RpcFrame::Make(1 + i % kNodes, kClient, i, 500 + 100 * (i % 5)));
      m.RunFor(300);
    }
    m.RunFor(200'000);
    EXPECT_EQ(responses, kRequests);
    std::ostringstream os;
    m.sim().stats().DumpJson(os);
    return os.str() + "arrivals: " + arrivals;
  };
  const std::string base = run(/*host_threads=*/0, /*spread_home_cores=*/false);
  EXPECT_EQ(run(/*host_threads=*/4, /*spread_home_cores=*/true), base);
}

TEST(IntegrationTest, MsixLegacyDeviceWakesThread) {
  // A legacy IRQ-only device routed through the MSI-X bridge wakes a
  // hardware thread with no interrupt controller involved (§4).
  Machine m;
  MsixBridge bridge(m.mem());
  bridge.RegisterVector(7, 0x6000);
  ApicTimerConfig tcfg;
  tcfg.period = 5000;
  tcfg.raise_irq = true;
  tcfg.irq_vector = 7;
  ApicTimer legacy_timer(m.sim(), m.mem(), tcfg, &bridge);
  uint64_t wakes = 0;
  const Ptid handler = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Monitor(0x6000);
        for (;;) {
          co_await ctx.Mwait();
          wakes++;
        }
      },
      true);
  m.Start(handler);
  legacy_timer.StartTimer();
  m.RunFor(52000);
  legacy_timer.StopTimer();
  EXPECT_GE(wakes, 9u);
  EXPECT_EQ(bridge.CountFor(7), legacy_timer.fires());
}

TEST(IntegrationTest, SchedulerThreadSwapsSoftwareContexts) {
  // The §3.1/§4 OS-scheduler pattern end to end: a kernel scheduler thread
  // wakes on the timer, uses rpull/rpush to swap a software thread out of
  // one hardware thread into another, and restarts it where it left off.
  Machine m;
  ApicTimerConfig tcfg;
  tcfg.period = 40000;
  tcfg.counter_addr = 0x7000;
  tcfg.one_shot = true;
  ApicTimer timer(m.sim(), m.mem(), tcfg);
  // A counting program on hardware thread 1.
  const Ptid victim = m.LoadSource(0, 1,
                                   "loop:\n"
                                   "  addi a0, a0, 1\n"
                                   "  j loop\n",
                                   /*supervisor=*/false, "", 0, 0x2000);
  const Ptid destination = m.threads().PtidOf(0, 2);
  const Ptid scheduler = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Monitor(0x7000);
        co_await ctx.Mwait();
        // Swap: stop the victim, pull its context, push into thread 2.
        co_await ctx.Stop(victim);
        const uint64_t pc = co_await ctx.Rpull(victim, static_cast<uint32_t>(RemoteReg::kPc));
        const uint64_t a0 = co_await ctx.Rpull(victim, 10);
        co_await ctx.Rpush(destination, static_cast<uint32_t>(RemoteReg::kPc), pc);
        co_await ctx.Rpush(destination, 10, a0);
        co_await ctx.Start(destination);
      },
      true);
  m.Start(scheduler);
  m.Start(victim);
  timer.StartTimer();
  m.RunFor(200000);
  EXPECT_EQ(m.threads().thread(victim).state(), ThreadState::kDisabled);
  EXPECT_EQ(m.threads().thread(destination).state(), ThreadState::kRunnable);
  // The counter kept increasing in its new home.
  const uint64_t mid = m.threads().thread(destination).ReadGpr(10);
  EXPECT_GT(mid, 0u);
  m.RunFor(100000);
  EXPECT_GT(m.threads().thread(destination).ReadGpr(10), mid);
}

}  // namespace
}  // namespace casc
