// E5 — No VM-exits / untrusted hypervisors (§2).
//
// A guest performs a privileged operation N times; we measure the
// guest-visible cost per "VM exit" for:
//   baseline in-kernel hypervisor : vmexit + root-mode work + vmentry
//   baseline ring-3 hypervisor    : vmexit + context switch to a user-level
//                                   hypervisor thread and back + vmentry
//   htm hypervisor (supervisor)   : exception descriptor + emulate + start
//   htm hypervisor (user mode)    : the same, with the hypervisor holding no
//                                   privilege at all (TDT permissions only)
#include <cstdio>

#include "bench/bench_util.h"
#include "src/baseline/baseline_machine.h"
#include "src/cpu/machine.h"
#include "src/runtime/hypervisor.h"

using namespace casc;

namespace {

int kExits = 100;  // reduced under --smoke
constexpr Tick kHypervisorWork = 40;  // decode + emulate

double BaselineInKernel() {
  BaselineMachine m;
  Tick done = 0;
  m.cpu(0).Spawn(
      "guest",
      [&](SoftContext& ctx) -> GuestTask {
        for (int i = 0; i < kExits; i++) {
          co_await ctx.VmExit();
          co_await ctx.Compute(kHypervisorWork);
          co_await ctx.VmEnter();
        }
      },
      [&] { done = m.sim().now(); });
  m.RunToQuiescence();
  return static_cast<double>(done) / kExits;
}

double BaselineRing3() {
  BaselineMachine m;
  SoftThread* guest = nullptr;
  SoftThread* hyp = nullptr;
  Tick done = 0;
  int pending = 0;  // exits queued for the userspace hypervisor
  guest = m.cpu(0).Spawn(
      "guest",
      [&](SoftContext& ctx) -> GuestTask {
        for (int i = 0; i < kExits; i++) {
          co_await ctx.VmExit();
          // Kernel cannot handle it: schedule the userspace hypervisor and
          // block the guest vCPU thread.
          pending++;
          m.cpu(0).Wake(hyp);
          co_await ctx.Block();
          co_await ctx.VmEnter();
        }
      },
      [&] { done = m.sim().now(); });
  hyp = m.cpu(0).Spawn("hyp", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      if (pending == 0) {
        co_await ctx.Block();
        continue;
      }
      pending--;
      co_await ctx.Compute(kHypervisorWork);
      m.cpu(0).Wake(guest);
    }
  });
  m.RunToQuiescence();
  return static_cast<double>(done) / kExits;
}

double HtmHypervisor(bool privileged) {
  Machine m;
  HypervisorConfig cfg;
  cfg.privileged = privileged;
  Hypervisor hyp(m, 0, 0, cfg);
  // Guest: N privileged csrwr ops in a loop, then report completion time.
  std::string src =
      "  li a2, " + std::to_string(kExits) + "\n" +
      "loop:\n"
      "  csrwr prio, a1\n"  // privileged from user mode -> "VM exit"
      "  addi a2, a2, -1\n"
      "  bne a2, r0, loop\n"
      "  csrrd a0, cycle\n"
      "  hcall 1\n"
      "  halt\n";
  const Ptid guest = m.LoadSource(0, 1, src, /*supervisor=*/false, "", 0, 0x2000);
  hyp.AddGuest(1);
  hyp.Install();
  Tick done = 0;
  m.SetHcallHandler([&](Core&, HwThread& t, int64_t) { done = t.ReadGpr(10); });
  m.Start(hyp.hyp_ptid());
  m.RunFor(100);
  const Tick t0 = m.sim().now();
  m.Start(guest);
  m.RunFor(5'000'000);
  if (done == 0) {
    return -1;
  }
  return static_cast<double>(done - t0) / kExits;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("e5_hypervisor", argc, argv);
  if (!report.parse_ok()) {
    return 1;
  }
  kExits = static_cast<int>(report.Iters(100, 20));
  Banner("E5", "VM exits: in-kernel vs ring-3 vs hardware-thread hypervisors",
         "\"VM-exits would stop the virtual machine's hardware thread and start the "
         "hypervisor's\" — same functionality, same performance, no privileged access (§2)");

  Table t({"hypervisor design", "cycles/exit", "ns/exit", "privileged?"});
  const double in_kernel = BaselineInKernel();
  const double ring3 = BaselineRing3();
  const double htm_sup = HtmHypervisor(true);
  const double htm_user = HtmHypervisor(false);
  t.Row("baseline in-kernel (KVM-style)", in_kernel, ToNs(static_cast<Tick>(in_kernel)), "yes");
  t.Row("baseline ring-3 (isolated)", ring3, ToNs(static_cast<Tick>(ring3)), "no");
  t.Row("htm hardware-thread (supervisor)", htm_sup, ToNs(static_cast<Tick>(htm_sup)), "yes");
  t.Row("htm hardware-thread (user mode)", htm_user, ToNs(static_cast<Tick>(htm_user)), "no");
  t.Print();
  report.Add("vm_exit_cost", "baseline in-kernel (KVM-style)", "cycles_per_exit", in_kernel);
  report.Add("vm_exit_cost", "baseline ring-3 (isolated)", "cycles_per_exit", ring3);
  report.Add("vm_exit_cost", "htm hardware-thread (supervisor)", "cycles_per_exit", htm_sup);
  report.Add("vm_exit_cost", "htm hardware-thread (user mode)", "cycles_per_exit", htm_user);

  std::printf(
      "\nshape check: isolating the baseline hypervisor at ring 3 piles context\n"
      "switches on top of the %llu+%llu-cycle exit/entry pair, while the htm\n"
      "hypervisor costs the same whether or not it is privileged — isolation\n"
      "becomes free (ratio ring3/in-kernel = %.2f, htm user/supervisor = %.2f).\n",
      (unsigned long long)kVmExitCycles, (unsigned long long)kVmEntryCycles,
      ring3 / in_kernel, htm_user / htm_sup);
  return report.Finish() ? 0 : 1;
}
