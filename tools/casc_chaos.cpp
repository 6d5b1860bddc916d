// casc-chaos: run seeded fault-injection campaigns against the simulated
// machine and report detection/recovery per fault class.
//
//   casc-chaos [--scenario=all|single-core|cross-core|<class>] [--seed=N]
//              [--faults=N] [--duration=N] [--at=T | --every=N | --prob=P]
//              [--expect-halt] [--stats-json=<path>] [--trace-json=<path>]
//              [--list] [--help]
//
// Scenarios (one per fault class; `--list` prints them):
//   nic-dma-bad-addr    RX payload DMA lands in an unwritable hole
//   block-timeout       a completion is swallowed; the driver's deadline fires
//   msix-doorbell-drop  a doorbell write is lost; a watchdog reconciles
//   context-poison      a context image is corrupted mid-restore
//   edp-unwritable      a descriptor write faults and escalates up the chain
//   handler-crash       the fault handler crashes mid-service
//   fabric-link-fault   a frame is dropped or delayed crossing the fabric
//   migration-crash     the migration engine dies mid-rpull/rpush tier move
//   remote-start-race   a cross-core start collides with a revoking stop
//
// Every run is bit-reproducible: the same --seed yields byte-identical
// --stats-json output.
// --expect-halt (edp-unwritable only) removes the
// top-level handler so the chain exhausts and the machine halts cleanly.
// Exit code: 0 if every scenario met its expectation, 1 otherwise, 2 on
// usage errors.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/chaos/scenarios.h"
#include "src/sim/config.h"

using namespace casc;

namespace {

void PrintUsage(FILE* out) {
  std::fprintf(out,
               "usage: casc-chaos [--scenario=all|single-core|cross-core|<class>]\n"
               "                  [--seed=N] [--faults=N]\n"
               "                  [--duration=N] [--at=T | --every=N | --prob=P]\n"
               "                  [--expect-halt] [--stats-json=<path>]\n"
               "                  [--trace-json=<path>] [--list] [--help]\n");
}

void PrintScenarios() {
  for (FaultClass cls : AllScenarioClasses()) {
    std::printf("%s\n", FaultClassName(cls));
  }
}

void PrintOutcome(const ScenarioOutcome& out) {
  std::printf("%-20s inj=%llu det=%llu rec=%llu detect_p50=%llu recover_p50=%llu",
              out.name.c_str(), (unsigned long long)out.injected,
              (unsigned long long)out.detected, (unsigned long long)out.recovered,
              (unsigned long long)out.detect_cycles.P50(),
              (unsigned long long)out.recovery_cycles.P50());
  std::printf(" completed=%llu", (unsigned long long)out.completed);
  if (out.timeouts != 0 || out.retries != 0 || out.drops != 0) {
    std::printf(" timeouts=%llu retries=%llu drops=%llu", (unsigned long long)out.timeouts,
                (unsigned long long)out.retries, (unsigned long long)out.drops);
  }
  if (out.halted) {
    std::printf(" HALT[%s]", HaltReasonName(out.halt_why));
  }
  std::printf(" %s", out.ok ? "ok" : "FAIL");
  if (!out.ok) {
    std::printf(" (%s)", out.why_not_ok.c_str());
  }
  std::printf("\n");
  if (out.halted) {
    std::printf("  halt: %s\n", out.halt_reason.c_str());
  }
}

// Escape a string for embedding as JSON object key (names are plain ASCII).
void WriteWrappedStats(std::ostream& os, const std::vector<ScenarioOutcome>& outcomes) {
  os << "{";
  for (size_t i = 0; i < outcomes.size(); i++) {
    if (i != 0) {
      os << ",";
    }
    os << "\n  \"" << outcomes[i].name << "\": " << outcomes[i].stats_json;
  }
  os << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string err;
  if (!cfg.ParseArgs(argc, argv, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    PrintUsage(stderr);
    return 2;
  }
  if (cfg.GetBool("help", false)) {
    PrintUsage(stdout);
    return 0;
  }
  if (cfg.GetBool("list", false)) {
    PrintScenarios();
    return 0;
  }

  ScenarioOptions opts;
  opts.seed = cfg.GetUint("seed", 1);
  opts.faults = cfg.GetUint("faults", 2);
  opts.duration = cfg.GetUint("duration", 400'000);
  opts.expect_halt = cfg.GetBool("expect-halt", false);
  const int schedule_flags =
      (cfg.Has("at") ? 1 : 0) + (cfg.Has("every") ? 1 : 0) + (cfg.Has("prob") ? 1 : 0);
  if (schedule_flags > 1) {
    std::fprintf(stderr, "at most one of --at/--every/--prob may be given\n");
    return 2;
  }
  if (cfg.Has("at")) {
    opts.has_schedule = true;
    opts.schedule = InjectionSchedule::AtTick(cfg.GetUint("at", 0));
  } else if (cfg.Has("every")) {
    opts.has_schedule = true;
    opts.schedule = InjectionSchedule::EveryN(cfg.GetUint("every", 1));
  } else if (cfg.Has("prob")) {
    opts.has_schedule = true;
    opts.schedule = InjectionSchedule::WithProbability(cfg.GetDouble("prob", 0.0));
  }
  if (cfg.ReportParseErrors()) {
    return 2;
  }

  const std::string which = cfg.GetString("scenario", "all");
  std::vector<FaultClass> to_run;
  if (which == "all") {
    to_run = AllScenarioClasses();
  } else if (which == "single-core") {
    to_run = SingleCoreScenarioClasses();
  } else if (which == "cross-core") {
    to_run = CrossCoreScenarioClasses();
  } else {
    FaultClass cls;
    if (!ParseFaultClass(which, &cls)) {
      std::fprintf(stderr, "unknown scenario '%s' (--list shows the choices)\n", which.c_str());
      return 2;
    }
    to_run.push_back(cls);
  }
  if (opts.expect_halt &&
      (to_run.size() != 1 || to_run[0] != FaultClass::kEdpUnwritable)) {
    std::fprintf(stderr, "--expect-halt only applies to --scenario=edp-unwritable\n");
    return 2;
  }
  const std::string trace_path = cfg.GetString("trace-json");
  if (!trace_path.empty() && to_run.size() != 1) {
    std::fprintf(stderr, "--trace-json needs a single --scenario\n");
    return 2;
  }

  std::vector<ScenarioOutcome> outcomes;
  bool all_ok = true;
  for (FaultClass cls : to_run) {
    ScenarioOutcome out = RunScenario(cls, opts, /*want_trace=*/!trace_path.empty());
    PrintOutcome(out);
    all_ok = all_ok && out.ok;
    outcomes.push_back(std::move(out));
  }

  const std::string stats_path = cfg.GetString("stats-json");
  if (!stats_path.empty()) {
    std::ofstream os(stats_path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", stats_path.c_str());
      return 2;
    }
    WriteWrappedStats(os, outcomes);
  }
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 2;
    }
    os << outcomes[0].trace_json;
  }
  return all_ok ? 0 : 1;
}
