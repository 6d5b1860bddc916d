// E2 — "No More Interrupts" (§2): event-to-handler latency.
//
// The same APIC timer event is delivered two ways:
//   baseline: legacy IRQ -> IRQ entry microcode -> handler (hard-IRQ
//             context), optionally from the idle state, optionally while a
//             busy thread must be preempted;
//   htm:      the timer increments a memory counter; a hardware thread
//             monitoring that line wakes from mwait (no IRQ context at all),
//             optionally while background threads load the core.
// Reported: cycles/ns from the event trigger to the first handler work, over
// many timer fires.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/baseline/baseline_machine.h"
#include "src/cpu/machine.h"
#include "src/dev/apic_timer.h"
#include "src/sim/stats.h"

using namespace casc;

namespace {

constexpr Tick kPeriod = 20000;
int kFires = 200;  // reduced under --smoke
constexpr Addr kCounter = 0x7000;

struct Result {
  Histogram latency;
};

// Baseline: timer raises an IRQ; handler latency = fire -> first handler
// work (the host callback runs at dispatch; its work lands after IRQ entry).
Result RunBaselineIrq(bool busy_core) {
  BaselineMachine m;
  ApicTimerConfig tcfg;
  tcfg.period = kPeriod;
  tcfg.raise_irq = true;
  ApicTimer timer(m.sim(), m.mem(), tcfg, &m.cpu(0));
  Result r;
  std::vector<Tick> handled;
  m.cpu(0).SetIrqHandler(tcfg.irq_vector, [&] {
    handled.push_back(m.sim().now() + kIrqEntryCycles);
    return 50;
  });
  if (busy_core) {
    m.cpu(0).Spawn("busy", [](SoftContext& ctx) -> GuestTask {
      for (;;) {
        co_await ctx.Compute(1'000'000);
      }
    });
  }
  m.RunFor(1000);
  const Tick t0 = m.sim().now();
  timer.StartTimer();
  m.RunFor(static_cast<Tick>(kFires) * kPeriod + 5000);
  timer.StopTimer();
  for (size_t i = 0; i < handled.size(); i++) {
    const Tick fire = t0 + (i + 1) * kPeriod;
    if (handled[i] >= fire) {
      r.latency.Record(handled[i] - fire);
    }
  }
  return r;
}

// HTM: handler thread mwaits on the timer's memory counter.
Result RunHtmMwait(bool busy_core, uint64_t handler_prio, uint64_t preempt_threshold) {
  MachineConfig cfg;
  cfg.hwt.preempt_priority = preempt_threshold;
  Machine m(cfg);
  ApicTimerConfig tcfg;
  tcfg.period = kPeriod;
  tcfg.counter_addr = kCounter;
  ApicTimer timer(m.sim(), m.mem(), tcfg);
  Result r;
  std::vector<Tick> handled;
  const Ptid handler = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Monitor(kCounter);
        for (;;) {
          co_await ctx.Mwait();
          handled.push_back(co_await ctx.ReadCsr(Csr::kCycle));
          co_await ctx.Compute(50);
        }
      },
      true);
  m.threads().thread(handler).arch().prio = handler_prio;
  if (busy_core) {
    for (uint32_t i = 1; i <= 24; i++) {
      const Ptid spinner = m.BindNative(
          0, i,
          [](GuestContext& ctx) -> GuestTask {
            for (;;) {
              co_await ctx.Compute(100);
            }
          },
          true);
      m.Start(spinner);
    }
  }
  m.Start(handler);
  m.RunFor(2000);
  const Tick t0 = m.sim().now();
  timer.StartTimer();
  m.RunFor(static_cast<Tick>(kFires) * kPeriod + 5000);
  timer.StopTimer();
  for (size_t i = 0; i < handled.size(); i++) {
    const Tick fire = t0 + (i + 1) * kPeriod;
    if (handled[i] >= fire) {
      r.latency.Record(handled[i] - fire);
    }
  }
  return r;
}

void Report(Table& t, BenchReport& rep, const char* config, const Result& r) {
  t.Row(config, (unsigned long long)r.latency.P50(), ToNs(r.latency.P50()),
        (unsigned long long)r.latency.P99(), ToNs(r.latency.P99()),
        (unsigned long long)r.latency.count());
  rep.Add("interrupt_latency", config, "p50_cycles", static_cast<double>(r.latency.P50()));
  rep.Add("interrupt_latency", config, "p99_cycles", static_cast<double>(r.latency.P99()));
  rep.Add("interrupt_latency", config, "events", static_cast<double>(r.latency.count()));
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("e2_interrupts", argc, argv);
  if (!report.parse_ok()) {
    return 1;
  }
  kFires = static_cast<int>(report.Iters(200, 20));
  Banner("E2", "Interrupt elimination: event -> handler latency",
         "hardware threads wake from mwait \"without needing an expensive transition to a "
         "hard IRQ context\"; priorities remove delays for time-critical events (§2, §4)");

  Table t({"delivery path", "p50 cyc", "p50 ns", "p99 cyc", "p99 ns", "events"});
  Report(t, report, "baseline IRQ (idle core)", RunBaselineIrq(false));
  Report(t, report, "baseline IRQ (busy core)", RunBaselineIrq(true));
  Report(t, report, "htm mwait (idle core)", RunHtmMwait(false, 1, 0));
  Report(t, report, "htm mwait (loaded core)", RunHtmMwait(true, 1, 0));
  Report(t, report, "htm mwait (loaded, prio+preempt)", RunHtmMwait(true, 8, 4));
  t.Print();

  std::printf(
      "\nshape check: the htm path should be several times faster than the IRQ\n"
      "path (which pays idle-exit %llu + IRQ entry %llu cycles), and hardware\n"
      "priorities should pull the loaded-core tail back toward the idle case.\n",
      (unsigned long long)kIdleWakeCycles, (unsigned long long)kIrqEntryCycles);
  return report.Finish() ? 0 : 1;
}
