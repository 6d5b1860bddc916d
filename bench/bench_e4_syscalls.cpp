// E4 — Exception-less system calls (§2) + kernel FP use (§2).
//
// One "null" syscall (10 cycles of kernel work) and one pread-style syscall
// (64-byte copy out of a kernel buffer), measured as cycles per call on:
//   baseline same-thread      : syscall/sysret mode switches around the work
//   baseline, kernel uses FP  : + FP/vector state preservation each way
//   baseline batched (FlexSC) : one mode-switch pair amortized over a batch
//   htm channel syscall       : dedicated kernel hardware thread + doorbells
//   htm direct IPC            : caller `start`s the callee thread directly
#include <cstdio>

#include "bench/bench_util.h"
#include "src/baseline/baseline_machine.h"
#include "src/cpu/machine.h"
#include "src/runtime/syscall_layer.h"

using namespace casc;

namespace {

int kCalls = 300;  // reduced under --smoke
constexpr Tick kNullWork = 10;
constexpr Addr kKernelBuf = 0x00800000;
constexpr Addr kUserBuf = 0x00810000;

// 64-byte copy, 8 bytes at a time, from either execution model.
template <typename Ctx>
GuestTask Copy64(Ctx& ctx, Addr src, Addr dst) {
  for (uint32_t off = 0; off < 64; off += 8) {
    const uint64_t v = co_await ctx.Load(src + off);
    co_await ctx.Store(dst + off, v);
  }
}

double BaselinePerCall(bool kernel_fp, bool pread, uint32_t batch) {
  BaselineMachineConfig cfg;
  cfg.cpu.kernel_uses_fp = kernel_fp;
  BaselineMachine m(cfg);
  Tick done = 0;
  m.cpu(0).Spawn(
      "app",
      [&](SoftContext& ctx) -> GuestTask {
        for (int i = 0; i < kCalls; i += batch) {
          co_await ctx.EnterKernel();
          for (uint32_t b = 0; b < batch; b++) {
            co_await ctx.Compute(kNullWork);
            if (pread) {
              co_await ctx.Call(Copy64(ctx, kKernelBuf, kUserBuf));
            }
          }
          co_await ctx.ExitKernel();
        }
      },
      [&] { done = m.sim().now(); });
  m.RunToQuiescence();
  return static_cast<double>(done) / kCalls;
}

double HtmPerCall(bool pread, bool direct_ipc) {
  Machine m;
  const Channel ch{0x00400000};
  auto handler = [pread](GuestContext& c, const SyscallRequest&, uint64_t* ret) -> GuestTask {
    co_await c.Compute(kNullWork);
    if (pread) {
      co_await c.Call(Copy64(c, kKernelBuf, kUserBuf));
    }
    *ret = 0;
  };
  Ptid server;
  if (direct_ipc) {
    server = m.BindNative(0, 2, MakeIpcCallee(ch, handler), /*supervisor=*/true);
  } else {
    server = m.BindNative(0, 2, MakeSyscallServer(ch, handler), /*supervisor=*/true);
    m.Start(server);
  }
  Tick done = 0;
  const Ptid app = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        for (int i = 0; i < kCalls; i++) {
          uint64_t ret = 0;
          if (direct_ipc) {
            co_await ctx.Call(IpcCall(ctx, ch, 2, {.nr = 1}, &ret));
          } else {
            co_await ctx.Call(SyscallCall(ctx, ch, {.nr = 1}, &ret));
          }
        }
        done = co_await ctx.ReadCsr(Csr::kCycle);
      },
      /*supervisor=*/true);  // supervisor so the identity vtid map applies
  m.Start(app);
  m.RunToQuiescence();
  return static_cast<double>(done) / kCalls;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("e4_syscalls", argc, argv);
  if (!report.parse_ok()) {
    return 1;
  }
  kCalls = static_cast<int>(report.Iters(300, 30));
  Banner("E4", "Exception-less syscalls; kernel FP/vector use",
         "serving syscalls in dedicated hardware threads avoids the mode-switch "
         "\"hundreds of cycles\" [46,69]; kernel FP use stops penalizing syscalls (§2)");

  Table t({"design", "null call cyc", "null ns", "pread64 cyc", "pread64 ns"});
  const auto row = [&](const char* design, double n, double p) {
    t.Row(design, n, ToNs(static_cast<Tick>(n)), p, ToNs(static_cast<Tick>(p)));
    report.Add("syscall_cost", design, "null_call_cycles", n);
    report.Add("syscall_cost", design, "pread64_cycles", p);
  };
  row("baseline same-thread syscall", BaselinePerCall(false, false, 1),
      BaselinePerCall(false, true, 1));
  row("baseline, kernel uses FP", BaselinePerCall(true, false, 1), BaselinePerCall(true, true, 1));
  row("baseline batched x16 (FlexSC-style)", BaselinePerCall(false, false, 16),
      BaselinePerCall(false, true, 16));
  row("htm channel syscall (server waits)", HtmPerCall(false, false), HtmPerCall(true, false));
  row("htm direct IPC (start callee)", HtmPerCall(false, true), HtmPerCall(true, true));
  t.Print();

  std::printf(
      "\nshape check: htm variants pay no mode switch, so the null call should\n"
      "beat the baseline by the ~%llu-cycle switch pair; kernel FP use must not\n"
      "change htm costs at all (separate hardware threads own their registers),\n"
      "while it inflates every baseline syscall. Batching closes part of the\n"
      "gap at the price of the asynchronous API the paper criticizes.\n",
      (unsigned long long)(kSyscallEntryCycles + kSyscallExitCycles));
  return report.Finish() ? 0 : 1;
}
