// Quickstart: the proposed hardware threading model in ~100 lines.
//
// We build a one-core machine with many hardware threads, write two small
// CASC-ISA assembly programs — a consumer that blocks with monitor/mwait and
// a producer that wakes it with an ordinary store — run them, and show that
// the wakeup takes nanoseconds, with no interrupt and no scheduler anywhere.
//
// Build & run:  ./examples/quickstart [--trace] [--trace-json=out.json]
//                                     [--stats-json=out.json]
#include <cstdio>

#include "examples/example_util.h"
#include "src/cpu/machine.h"
#include "src/sim/config.h"

using namespace casc;

int main(int argc, char** argv) {
  Config cfg;
  std::string err;
  if (!cfg.ParseArgs(argc, argv, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  MachineConfig config;
  config.hwt.threads_per_core = 64;  // 64 hardware threads on this core
  config.hwt.smt_width = 2;          // 2 SMT slots share the pipeline
  Machine m(config);
  ExampleTrace trace(m, cfg);
  if (cfg.ReportParseErrors()) {
    return 2;  // a malformed flag value must not silently become the default
  }

  // Timestamps reported by the guest code via `hcall`.
  Tick produced_at = 0;
  Tick consumed_at = 0;
  uint64_t consumed_value = 0;
  m.SetHcallHandler([&](Core&, HwThread& t, int64_t code) {
    const uint64_t a0 = t.ReadGpr(10);
    switch (code) {
      case 1:
        produced_at = a0;
        break;
      case 2:
        consumed_at = a0;
        break;
      case 3:
        consumed_value = a0;
        break;
      default:
        break;
    }
  });

  // The consumer arms a monitor on a mailbox line and blocks. No polling: the
  // thread costs zero cycles while it waits.
  const Ptid consumer = m.LoadSource(0, 0,
                                     "  li a1, 0x9000      # mailbox flag line\n"
                                     "  monitor a1\n"
                                     "  mwait               # block until someone writes\n"
                                     "  ld a0, 64(a1)       # fetch the payload\n"
                                     "  hcall 3\n"
                                     "  csrrd a0, cycle\n"
                                     "  hcall 2             # report wake time\n"
                                     "  halt\n",
                                     /*supervisor=*/true, "", 0, 0x1000);

  // The producer computes for a while, then publishes payload + flag.
  const Ptid producer = m.LoadSource(0, 1,
                                     "  li a1, 0x9000\n"
                                     "  li a2, 1234\n"
                                     "  li a3, 500\n"
                                     "spin:\n"
                                     "  addi a3, a3, -1\n"
                                     "  bne a3, r0, spin\n"
                                     "  sd a2, 64(a1)       # payload (different line)\n"
                                     "  csrrd a0, cycle\n"
                                     "  hcall 1             # report publish time\n"
                                     "  sd a2, 0(a1)        # flag store wakes the consumer\n"
                                     "  halt\n",
                                     /*supervisor=*/true, "", 0, 0x2000);

  m.Start(consumer);
  m.Start(producer);
  m.RunToQuiescence();

  std::printf("casc quickstart — a case against (most) context switches\n");
  std::printf("--------------------------------------------------------\n");
  std::printf("hardware threads/core : %u (SMT width %u)\n", config.hwt.threads_per_core,
              config.hwt.smt_width);
  std::printf("payload received      : %llu\n", (unsigned long long)consumed_value);
  std::printf("producer stored flag  @ cycle %llu\n", (unsigned long long)produced_at);
  std::printf("consumer running again@ cycle %llu\n", (unsigned long long)consumed_at);
  const Tick wake = consumed_at - produced_at;
  std::printf("wakeup cost           : %llu cycles = %.1f ns @ %.1f GHz\n",
              (unsigned long long)wake, m.sim().CyclesToNs(wake), m.config().ghz);
  std::printf("\nNo interrupt was taken, no run queue was touched: the store hit the\n");
  std::printf("monitor filter and the waiting hardware thread resumed in nanoseconds.\n");
  if (!trace.Finish(0, m.sim().now() + 1)) {
    return 1;
  }
  return consumed_value == 1234 ? 0 : 1;
}
