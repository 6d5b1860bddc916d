// E1 — Cost of the primitives.
//
// Paper claims (§1, §4): starting a hardware thread costs ~20 cycles from
// the large register file and 10–50 cycles (3–16 ns @ 3 GHz) from L2/L3
// slots, while a software context switch costs hundreds of cycles and a
// syscall mode switch hundreds more. Every measurement below runs the real
// simulated path a fixed number of times and reports *simulated* cycles/ns
// per operation (the simulator's own wall time is meaningless here, so it is
// not taken).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/baseline/baseline_machine.h"
#include "src/cpu/machine.h"
#include "src/hwt/thread_system.h"

namespace casc {
namespace {

constexpr double kGhz = 3.0;

MachineConfig TieredConfig() {
  MachineConfig cfg;
  cfg.hwt.threads_per_core = 32;
  cfg.hwt.rf_slots = 4;
  cfg.hwt.l2_slots = 4;
  cfg.hwt.l3_slots = 4;
  cfg.mem.l3.size_bytes = 1 << 20;  // keep construction cheap
  return cfg;
}

// Each measurement returns simulated cycles per operation over `iters`
// iterations.

// Wake-to-ready latency with the thread's saved state pinned in one tier.
double HtmWake(StorageTier tier, uint64_t iters) {
  Machine m(TieredConfig());
  ThreadSystem& ts = m.threads();
  const Ptid victim = 1;
  ts.InitThread(victim, 0x1000, true);
  double total = 0;
  double ops = 0;
  for (uint64_t i = 0; i < iters; i++) {
    ts.store(0).ForceTier(ts.thread(victim), tier);
    const Tick before = m.sim().now();
    ts.MakeRunnable(victim);
    total += static_cast<double>(ts.thread(victim).ready_at() - before);
    ops += 1;
    ts.Disable(victim);
    m.RunFor(1);
  }
  return total / ops;
}

// Issue cost of the start instruction itself (supervisor identity mapping).
double HtmStartIssue(uint64_t iters) {
  Machine m(TieredConfig());
  ThreadSystem& ts = m.threads();
  ts.InitThread(0, 0x1000, true);
  ts.thread(0).set_state(ThreadState::kRunnable);
  ts.InitThread(1, 0x1000, true);
  ts.thread(1).set_state(ThreadState::kRunnable);  // start -> no-op, pure issue cost
  double total = 0;
  double ops = 0;
  for (uint64_t i = 0; i < iters; i++) {
    total += static_cast<double>(ts.Start(0, 1).latency);
    ops += 1;
  }
  return total / ops;
}

// Full software context switch on the baseline: two threads ping-pong via
// block/wake; cycles are measured from the busy-cycle counter.
double BaselineContextSwitch(uint64_t iters) {
  BaselineMachine m;
  SoftThread* a = nullptr;
  SoftThread* b = nullptr;
  a = m.cpu(0).Spawn("a", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      m.cpu(0).Wake(b);
      co_await ctx.Block();
    }
  });
  b = m.cpu(0).Spawn("b", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      m.cpu(0).Wake(a);
      co_await ctx.Block();
    }
  });
  m.RunFor(50000);  // warm the TCB lines
  double total = 0;
  double ops = 0;
  for (uint64_t i = 0; i < iters; i++) {
    const uint64_t sw0 = m.cpu(0).context_switches();
    const Tick t0 = m.sim().now();
    m.RunFor(20000);
    total += static_cast<double>(m.sim().now() - t0);
    ops += static_cast<double>(m.cpu(0).context_switches() - sw0);
  }
  return total / ops;
}

// Baseline syscall: mode switch in and out around a trivial kernel body.
double BaselineSyscall(bool kernel_fp, uint64_t iters) {
  BaselineMachineConfig cfg;
  cfg.cpu.kernel_uses_fp = kernel_fp;
  BaselineMachine m(cfg);
  uint64_t calls = 0;
  m.cpu(0).Spawn("sys", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      co_await ctx.EnterKernel();
      co_await ctx.Compute(10);
      co_await ctx.ExitKernel();
      calls++;
    }
  });
  m.RunFor(20000);
  double total = 0;
  double ops = 0;
  for (uint64_t i = 0; i < iters; i++) {
    const uint64_t c0 = calls;
    const Tick t0 = m.sim().now();
    m.RunFor(20000);
    total += static_cast<double>(m.sim().now() - t0);
    ops += static_cast<double>(calls - c0);
  }
  return total / ops;
}

// Baseline VM exit round trip.
double BaselineVmExit(uint64_t iters) {
  BaselineMachine m;
  uint64_t exits = 0;
  m.cpu(0).Spawn("guest", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      co_await ctx.VmExit();
      co_await ctx.Compute(10);
      co_await ctx.VmEnter();
      exits++;
    }
  });
  m.RunFor(20000);
  double total = 0;
  double ops = 0;
  for (uint64_t i = 0; i < iters; i++) {
    const uint64_t c0 = exits;
    const Tick t0 = m.sim().now();
    m.RunFor(50000);
    total += static_cast<double>(m.sim().now() - t0);
    ops += static_cast<double>(exits - c0);
  }
  return total / ops;
}

}  // namespace
}  // namespace casc

int main(int argc, char** argv) {
  using namespace casc;
  std::printf(
      "E1 — primitive costs. Paper: hardware-thread start ~20 cyc (RF), 10-50 cyc\n"
      "(L2/L3, 3-16 ns @3GHz); software context switch = hundreds of cycles; the\n"
      "sim_cycles / sim_ns columns below carry the simulated costs.\n\n");
  BenchReport report("e1_primitives", argc, argv);
  if (!report.parse_ok()) {
    return 1;
  }

  Table table({"primitive", "iterations", "sim_cycles", "sim_ns"});
  auto record = [&](const std::string& label, uint64_t iters, double per_op) {
    report.Add("primitives", label, "sim_cycles", per_op);
    report.Add("primitives", label, "sim_ns", per_op / kGhz);
    table.Row(label, iters, per_op, per_op / kGhz);
  };
  const uint64_t wake_iters = report.Iters(2000, 50);
  const struct {
    const char* name;
    StorageTier tier;
  } tiers[] = {{"regfile", StorageTier::kRegFile},
               {"l2_slot", StorageTier::kL2},
               {"l3_slot", StorageTier::kL3},
               {"dram_spill", StorageTier::kDram}};
  for (const auto& t : tiers) {
    record(std::string("htm_wake/") + t.name, wake_iters, HtmWake(t.tier, wake_iters));
  }
  const uint64_t start_iters = report.Iters(5000, 100);
  record("htm_start_issue", start_iters, HtmStartIssue(start_iters));
  const uint64_t sw_iters = report.Iters(50, 3);
  record("baseline_context_switch", sw_iters, BaselineContextSwitch(sw_iters));
  record("baseline_syscall/integer_kernel", sw_iters, BaselineSyscall(false, sw_iters));
  record("baseline_syscall/fp_kernel", sw_iters, BaselineSyscall(true, sw_iters));
  record("baseline_vm_exit", sw_iters, BaselineVmExit(sw_iters));
  table.Print();
  return report.Finish() ? 0 : 1;
}
