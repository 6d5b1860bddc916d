// Sandboxed packet filters (§2: "other system components can be isolated in
// a less privileged mode, such as ... eBPF code. For eBPF, we could even
// relax some code restrictions if it ran in its own privilege domain.")
//
// A kernel network thread hands each incoming packet to an *untrusted*
// filter program running in a user-mode hardware thread (direct start — no
// kernel transition for the filter itself). The filter reads the packet and
// writes a verdict. Because it has its own privilege domain and an exception
// descriptor, a buggy or malicious filter — here one that divides by zero —
// merely gets itself killed: the kernel observes the fault descriptor,
// applies default-deny, and keeps the machine running. Unlike eBPF, the
// filter may loop arbitrarily: the kernel enforces a time budget with `stop`.
//
// Build & run:  ./examples/sandbox_filter [--trace] [--trace-json=out.json]
#include <cstdio>

#include "examples/example_util.h"
#include "src/cpu/machine.h"
#include "src/dev/nic.h"
#include "src/runtime/rpc.h"
#include "src/sim/config.h"

using namespace casc;

namespace {

constexpr Addr kPacketBuf = 0x02008000;  // first RX buffer (from SetupNicRings)
constexpr Addr kVerdict = 0x00900000;    // filter writes 1 (pass) / 2 (drop)
constexpr Addr kFilterEdp = 0x00901000;  // filter's exception descriptor

}  // namespace

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
  Nic nic(m.sim(), m.mem(), NicConfig{});
  const NicRings rings = SetupNicRings(m.mem(), nic, 0x02000000);

  // The untrusted filter, in assembly, run in USER mode: passes packets
  // whose first byte is even, drops odd ones — and divides by the second
  // byte, which a hostile sender can set to zero.
  const Ptid filter = m.LoadSource(0, 1,
                                   "filter_entry:\n"
                                   "  # a1 = packet address, injected by the kernel via rpush\n"
                                   "  li a2, 0x00900000\n"  // verdict slot
                                   "  lb a3, 0(a1)\n"
                                   "  lb a4, 1(a1)\n"
                                   "  li a5, 100\n"
                                   "  div a5, a5, a4\n"     // faults if byte[1] == 0
                                   "  andi a3, a3, 1\n"
                                   "  addi a3, a3, 1\n"     // 1 = pass, 2 = drop
                                   "  sd a3, 0(a2)\n"
                                   "  halt\n",              // self-disable until next packet
                                   /*supervisor=*/false, "filter_entry", kFilterEdp, 0x4000);

  // The kernel network thread: for each frame, reset the filter's pc, start
  // it, and wait on the verdict line OR the filter's fault descriptor.
  uint64_t passed = 0;
  uint64_t dropped = 0;
  uint64_t killed = 0;
  const Ptid kernel = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        uint64_t seen = 0;
        uint64_t faults_seen = 0;
        co_await ctx.Monitor(rings.rx_tail);
        co_await ctx.Monitor(kVerdict);
        co_await ctx.Monitor(kFilterEdp);
        for (;;) {
          const uint64_t tail = co_await ctx.Load(rings.rx_tail);
          while (seen < tail) {
            // Point the filter at its entry, hand it the packet address, and
            // clear the verdict.
            co_await ctx.Store(kVerdict, 0);
            const Addr buf = rings.rx_bufs + (seen % rings.entries) * 2048;
            co_await ctx.Rpush(filter, static_cast<uint32_t>(RemoteReg::kPc), 0x4000);
            co_await ctx.Rpush(filter, 11 /*a1*/, buf);
            co_await ctx.Start(filter);
            // Wait for verdict or fault.
            for (;;) {
              const uint64_t verdict = co_await ctx.Load(kVerdict);
              if (verdict == 1) {
                passed++;
                break;
              }
              if (verdict == 2) {
                dropped++;
                break;
              }
              const uint64_t fault_seq = co_await ctx.Load(kFilterEdp + 40);
              if (fault_seq != faults_seen) {
                faults_seen = fault_seq;
                killed++;  // default deny; the filter is already disabled
                break;
              }
              co_await ctx.Mwait();
            }
            seen++;
            co_await ctx.Store(nic.config().mmio_base + kNicRxHead, seen);
          }
          co_await ctx.Mwait();
        }
      },
      /*supervisor=*/true);
  m.Start(kernel);
  m.RunFor(1000);

  // Traffic: even first byte (pass), odd (drop), and a malicious packet with
  // byte[1] == 0 that crashes the filter.
  const uint8_t packets[][2] = {{2, 1}, {3, 1}, {4, 1}, {7, 0}, {8, 1}};
  for (const auto& p : packets) {
    nic.InjectFrame({p[0], p[1], 0, 0});
    m.RunFor(5000);
  }
  m.RunFor(20000);

  std::printf("casc sandboxed-filter demo (the eBPF use case, §2)\n");
  std::printf("---------------------------------------------------\n");
  std::printf("packets passed   : %llu (expected 3)\n", (unsigned long long)passed);
  std::printf("packets dropped  : %llu (expected 1)\n", (unsigned long long)dropped);
  std::printf("filter crashes   : %llu (expected 1 — the div-by-zero packet)\n",
              (unsigned long long)killed);
  std::printf("machine halted?  : %s\n", m.halted() ? "YES (bug!)" : "no");
  std::printf("\nThe filter ran with loops and arbitrary arithmetic — restrictions eBPF\n");
  std::printf("needs for safety — because its privilege domain, not a verifier,\n");
  std::printf("contains the damage. Its fault wrote a descriptor; the kernel thread\n");
  std::printf("woke from mwait and applied default-deny.\n");
  if (!trace.Finish(0, m.sim().now() + 1)) {
    return 1;
  }
  return (passed == 3 && dropped == 1 && killed == 1 && !m.halted()) ? 0 : 1;
}
