// Self-contained chaos scenarios: one per fault class, each building a small
// machine + workload around the layer under attack, running a seeded
// campaign, and reporting what was injected, detected, and recovered — plus
// whether the scenario's expectation held. The casc_chaos CLI, the
// chaos_smoke ctest tier, and bench_e11_recovery are all thin drivers over
// RunScenario().
#ifndef SRC_CHAOS_SCENARIOS_H_
#define SRC_CHAOS_SCENARIOS_H_

#include <string>
#include <vector>

#include "src/chaos/chaos_engine.h"
#include "src/sim/stats.h"

namespace casc {

struct ScenarioOptions {
  uint64_t seed = 1;
  Tick duration = 400'000;  // simulated cycles
  uint64_t faults = 2;      // campaign fault budget (max_faults)
  // Schedule override (--at/--every/--prob); each scenario has a sensible
  // default when unset.
  bool has_schedule = false;
  InjectionSchedule schedule = InjectionSchedule::EveryN(1);
  // edp-unwritable only: drop the top-level handler so the chain exhausts,
  // and expect a clean machine halt instead of recovery.
  bool expect_halt = false;
};

struct ScenarioOutcome {
  std::string name;

  // Campaign accounting (for the scenario's fault class).
  uint64_t injected = 0;
  uint64_t detected = 0;
  uint64_t recovered = 0;
  Histogram detect_cycles;    // injection -> detection, per fault
  Histogram recovery_cycles;  // injection -> recovery, per fault

  // Workload health.
  uint64_t completed = 0;   // scenario-specific unit of useful work
  uint64_t timeouts = 0;    // requests whose deadline expired
  uint64_t retries = 0;     // resubmissions
  uint64_t drops = 0;       // requests abandoned for good
  uint64_t bad_frames = 0;  // NIC: frames whose payload never landed

  // Machine halt state.
  bool halted = false;
  HaltReason halt_why = HaltReason::kNone;
  std::string halt_reason;

  // Did the scenario's expectation hold (faults detected + recovered, or the
  // expected halt for expect_halt runs)?
  bool ok = false;
  std::string why_not_ok;  // first failed expectation, for the CLI

  // Full stats-registry JSON (deterministic key order) — the byte-for-byte
  // reproducibility witness for `casc_chaos --seed`.
  std::string stats_json;
  // Chrome trace with chaos marks; only filled when requested.
  std::string trace_json;
};

// Every class RunScenario can build, in CLI listing order.
const std::vector<FaultClass>& AllScenarioClasses();
// The cross-core subset (two-core machines; see IsCrossCoreFault).
const std::vector<FaultClass>& CrossCoreScenarioClasses();
// The single-core subset.
const std::vector<FaultClass>& SingleCoreScenarioClasses();

ScenarioOutcome RunScenario(FaultClass cls, const ScenarioOptions& opts,
                            bool want_trace = false);

}  // namespace casc

#endif  // SRC_CHAOS_SCENARIOS_H_
