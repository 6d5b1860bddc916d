// Untrusted hypervisor demo (§2 "Untrusted Hypervisors").
//
// Two guest programs run in user-mode hardware threads. When a guest
// executes a privileged instruction, the hardware writes an exception
// descriptor and disables the guest — no trap, no ring transition. The
// hypervisor — itself just another *user-mode* hardware thread whose only
// authority is a thread descriptor table — wakes from mwait, trap-and-
// emulates the instruction with rpull/rpush, and restarts the guest.
//
// Build & run:  ./examples/hypervisor_demo [--trace] [--trace-json=out.json]
#include <cstdio>

#include "examples/example_util.h"
#include "src/cpu/machine.h"
#include "src/runtime/hypervisor.h"
#include "src/sim/config.h"

using namespace casc;

int main(int argc, char** argv) {
  Config cfg;
  std::string err;
  if (!cfg.ParseArgs(argc, argv, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  Machine m;
  ExampleTrace trace(m, cfg);
  if (cfg.ReportParseErrors()) {
    return 2;  // a malformed flag value must not silently become the default
  }
  HypervisorConfig hv_cfg;
  hv_cfg.privileged = false;  // the headline configuration: ring-3 hypervisor
  Hypervisor hyp(m, 0, /*hyp_local=*/0, hv_cfg);

  // Guest 1: sets its scheduling priority (privileged) then reports.
  const Ptid g1 = m.LoadSource(0, 1,
                               "  li a0, 7\n"
                               "  csrwr prio, a0     # privileged -> VM exit\n"
                               "  li a0, 0x11\n"
                               "  hcall 1\n"
                               "  halt\n",
                               /*supervisor=*/false, "", 0, 0x2000);
  // Guest 2: pokes two privileged CSRs.
  const Ptid g2 = m.LoadSource(0, 2,
                               "  li a0, 3\n"
                               "  csrwr prio, a0\n"
                               "  li a0, 0x8000\n"
                               "  csrwr edp, a0\n"
                               "  li a0, 0x22\n"
                               "  hcall 1\n"
                               "  halt\n",
                               /*supervisor=*/false, "", 0, 0x3000);
  hyp.AddGuest(1);
  hyp.AddGuest(2);
  hyp.Install();

  std::vector<uint64_t> reports;
  m.SetHcallHandler([&](Core&, HwThread& t, int64_t) { reports.push_back(t.ReadGpr(10)); });

  m.Start(hyp.hyp_ptid());
  m.RunFor(100);
  m.Start(g1);
  m.Start(g2);
  m.RunFor(500000);

  std::printf("casc untrusted hypervisor demo\n");
  std::printf("------------------------------\n");
  std::printf("hypervisor privilege : user mode (no kernel access at all)\n");
  std::printf("VM exits handled     : %llu\n", (unsigned long long)hyp.exits_handled());
  std::printf("guest 1 virtual prio : %llu\n", (unsigned long long)hyp.VirtualCsr(0, Csr::kPrio));
  std::printf("guest 2 virtual prio : %llu\n", (unsigned long long)hyp.VirtualCsr(1, Csr::kPrio));
  std::printf("guest 2 virtual edp  : 0x%llx\n",
              (unsigned long long)hyp.VirtualCsr(1, Csr::kEdp));
  std::printf("guests completed     : %zu of 2 (reports:", reports.size());
  for (uint64_t r : reports) {
    std::printf(" 0x%llx", (unsigned long long)r);
  }
  std::printf(")\n");
  std::printf("\nEvery 'VM exit' was a hardware-thread stop + descriptor write; the\n");
  std::printf("hypervisor's authority came entirely from its TDT permissions (§3.2).\n");
  if (!trace.Finish(0, m.sim().now() + 1)) {
    return 1;
  }
  return hyp.exits_handled() == 3 && reports.size() == 2 ? 0 : 1;
}
