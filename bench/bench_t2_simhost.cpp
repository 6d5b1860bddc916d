// T2 — Simulator host throughput.
//
// Unlike E1–E10, which report *simulated* cycles, this bench measures the
// simulator itself: host-side wall time per simulated instruction and per
// fired event. It is the regression guard for the hot paths every other
// experiment runs through (instruction fetch/decode, the event queue, the
// monitor filter write path), and it is what makes the paper's capacity
// experiments (100s–1000s of contexts, E8) tractable at realistic sizes.
//
// Workloads:
//   interp             4 interpreted threads in a tight ALU/branch loop on
//                      the interpreter (predecode + fusion), plus
//                      per-pattern fusion-hit stats
//   native             4 native-coroutine threads doing compute/store/load
//   monitor            writer storing mostly-unwatched lines + a monitor/
//                      mwait watcher woken every 256 stores
//   multicore8         8 cores each in a private count loop: the host cost
//                      of a multi-core machine on the one event queue
//
// Metrics (per workload): host_ms, sim_insts, sim_insts_per_sec,
// events_per_sec, sim_ticks; interp adds fused_pairs_<pattern> and
// fused_pair_rate. Host-time metrics vary run to run; the simulated metrics
// are deterministic.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/cpu/machine.h"
#include "src/hwt/thread_system.h"

namespace casc {
namespace {

struct HostRun {
  double host_ms = 0;
  double sim_insts = 0;
  double events = 0;
  double sim_ticks = 0;
};

// Runs `m` to quiescence under a wall clock, collecting host + sim totals.
HostRun Measure(Machine& m) {
  const uint64_t events_before = m.sim().TotalEventsFired();
  const auto t0 = std::chrono::steady_clock::now();
  m.RunToQuiescence();
  const auto t1 = std::chrono::steady_clock::now();
  HostRun r;
  r.host_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (uint32_t c = 0; c < m.num_cores(); c++) {
    r.sim_insts += static_cast<double>(m.core(c).instructions_retired());
  }
  r.events = static_cast<double>(m.sim().TotalEventsFired() - events_before);
  r.sim_ticks = static_cast<double>(m.sim().now());
  return r;
}

void Report(BenchReport& report, Table& table, const std::string& config, const HostRun& r) {
  const double host_sec = r.host_ms > 0 ? r.host_ms / 1e3 : 1e-9;
  const double ips = r.sim_insts / host_sec;
  const double eps = r.events / host_sec;
  table.Row(config, r.host_ms, r.sim_insts, ips / 1e6, eps / 1e6);
  report.Add("simhost", config, "host_ms", r.host_ms);
  report.Add("simhost", config, "sim_insts", r.sim_insts);
  report.Add("simhost", config, "sim_insts_per_sec", ips);
  report.Add("simhost", config, "events_per_sec", eps);
  report.Add("simhost", config, "sim_ticks", r.sim_ticks);
}

MachineConfig SimhostConfig() {
  MachineConfig cfg;
  cfg.hwt.threads_per_core = 8;
  cfg.mem.l3.size_bytes = 1 << 20;  // keep construction cheap
  return cfg;
}

std::string CountLoopSource(uint64_t iters) {
  // 3 instructions per iteration + 2 of prologue + halt.
  return "  li a1, " + std::to_string(iters) +
         "\n"
         "loop:\n"
         "  addi a1, a1, -1\n"
         "  bne a1, r0, loop\n"
         "  halt\n";
}

HostRun RunInterp(uint64_t iters, BenchReport& report) {
  Machine m(SimhostConfig());
  const std::string src = CountLoopSource(iters);
  for (uint32_t t = 0; t < 4; t++) {
    const Ptid p = m.LoadSource(0, t, src, /*supervisor=*/true, "", 0,
                                /*base=*/0x1000 + 0x1000 * t);
    m.Start(p);
  }
  const HostRun r = Measure(m);
  // Per-pattern fusion hit rate: each counted pair covers two retired
  // instructions, so fused_pair_rate = 1.0 would mean every instruction ran
  // as half of a fused pair. Deterministic (sim-side) metrics.
  uint64_t total = 0;
  for (uint32_t k = 1; k < kNumFusedOps; k++) {
    const FusedOp kind = static_cast<FusedOp>(k);
    const uint64_t pairs = m.core(0).fused_pairs(kind);
    total += pairs;
    report.Add("simhost", "interp", std::string("fused_pairs_") + FusedOpName(kind),
               static_cast<double>(pairs));
  }
  report.Add("simhost", "interp", "fused_pair_rate",
             r.sim_insts > 0 ? 2.0 * static_cast<double>(total) / r.sim_insts : 0.0);
  return r;
}

HostRun RunNative(uint64_t iters) {
  Machine m(SimhostConfig());
  for (uint32_t t = 0; t < 4; t++) {
    const Addr slot = 0x400000 + 64 * t;
    const Ptid p = m.BindNative(
        0, t,
        [iters, slot](GuestContext& ctx) -> GuestTask {
          for (uint64_t k = 0; k < iters; k++) {
            co_await ctx.Compute(1);
            co_await ctx.Store(slot, k);
            co_await ctx.Load(slot);
          }
          co_await ctx.StopSelf();
        },
        /*supervisor=*/true);
    m.Start(p);
  }
  return Measure(m);
}

HostRun RunMonitor(uint64_t iters) {
  Machine m(SimhostConfig());
  // Writer: every store enters MonitorFilter::OnWrite with a non-empty
  // watcher set; one in 256 hits the watched line and wakes the watcher.
  const std::string writer =
      "  li a1, " + std::to_string(iters) +
      "\n"
      "  li a2, 0x200000\n"
      "  li a3, 0x9000\n"
      "loop:\n"
      "  sd a1, 0(a2)\n"
      "  andi a4, a1, 255\n"
      "  bne a4, r0, skip\n"
      "  sd a1, 0(a3)\n"
      "skip:\n"
      "  addi a1, a1, -1\n"
      "  bne a1, r0, loop\n"
      "  sd r0, 0(a3)\n"
      "  halt\n";
  const std::string watcher =
      "  li a1, 0x9000\n"
      "again:\n"
      "  monitor a1\n"
      "  mwait\n"
      "  ld a2, 0(a1)\n"
      "  bne a2, r0, again\n"
      "  halt\n";
  const Ptid w = m.LoadSource(0, 0, writer, /*supervisor=*/true, "", 0, 0x1000);
  const Ptid v = m.LoadSource(0, 1, watcher, /*supervisor=*/true, "", 0, 0x2000);
  m.Start(v);
  m.Start(w);
  return Measure(m);
}

// 8 simulated cores, each running one interpreted count loop in its own code
// region. Cores share nothing but the (read-only) physical memory map, so the
// row measures what interleaving eight busy cores on one queue costs.
HostRun RunMulticore(uint64_t iters) {
  constexpr uint32_t kCores = 8;
  MachineConfig cfg = SimhostConfig();
  cfg.num_cores = kCores;
  Machine m(cfg);
  const std::string src = CountLoopSource(iters);
  for (uint32_t c = 0; c < kCores; c++) {
    const Ptid p = m.LoadSource(c, 0, src, /*supervisor=*/true, "", 0,
                                /*base=*/0x10000 + 0x10000 * c);
    m.Start(p);
  }
  return Measure(m);
}

}  // namespace
}  // namespace casc

int main(int argc, char** argv) {
  using namespace casc;
  BenchReport report("t2_simhost", argc, argv);
  if (!report.parse_ok()) {
    return 1;
  }
  Banner("T2", "simulator host throughput",
         "hardware-thread multiplexing lives or dies on per-cycle dispatch cost; the "
         "simulated cycle loop must be cheap to scale E8 to 100s-1000s of contexts");

  const uint64_t interp_iters = report.Iters(1'500'000, 20'000);
  const uint64_t native_iters = report.Iters(400'000, 5'000);
  const uint64_t monitor_iters = report.Iters(1'000'000, 20'000);

  Table table({"workload", "host_ms", "sim_insts", "Minsts/s", "Mevents/s"});
  Report(report, table, "interp", RunInterp(interp_iters, report));
  Report(report, table, "native", RunNative(native_iters));
  Report(report, table, "monitor", RunMonitor(monitor_iters));
  Report(report, table, "multicore8", RunMulticore(report.Iters(1'500'000, 20'000)));
  table.Print();
  return report.Finish() ? 0 : 1;
}
