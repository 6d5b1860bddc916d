// casc-run: assemble a .casm file and run it on a simulated machine.
//
//   casc-run prog.casm [--entry=symbol] [--supervisor=true] [--max-cycles=N]
//            [--cores=1] [--threads-per-core=64] [--trace] [--trace-json=<path>]
//            [--dump-stats] [--stats-json=<path>] [--no-lint] [--race-check]
//
// The program is linted by default before it runs (diagnostics go to stderr;
// the simulation proceeds regardless — the simulator is the ground truth).
// Pass --no-lint to skip the analysis.
//
// Conventions: the program runs on hardware thread 0 in supervisor mode by
// default. If the image defines harness thread symbols (tN_entry etc., see
// HarnessThreads in src/isa/assembler.h), verify::BootHarness sets up every
// declared thread instead and starts the tN_main ones; a declared ptid the
// machine does not have is a usage error (exit 2). `hcall 1` prints a0 in
// decimal, `hcall 2` prints it in hex, `hcall 0`/`halt` ends the thread.
// Exit code: 0 if the machine quiesced without halting, 1 on machine halt
// (unhandled fault), 2 on usage errors, 3 if --race-check reported a race.
//
// --race-check attaches the vector-clock race detector (DESIGN.md §4h) as a
// concurrency observer; detected races print to stderr after the run. With
// the flag off, no observer is installed and the hot path only pays a null
// pointer test.
//
// With a multi-core machine (--cores=N), the machine has N x threads-per-core
// hardware threads and harness thread tK lands on core K / threads-per-core:
// `--cores=4 --threads-per-core=1` spreads t0..t3 across four cores.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "src/analysis/lint.h"
#include "src/cpu/machine.h"
#include "src/hwt/tracer.h"
#include "src/sim/config.h"
#include "src/verify/harness.h"
#include "src/verify/race_detector.h"

using namespace casc;

namespace {

void PrintUsage(FILE* out) {
  std::fprintf(out,
               "usage: casc-run <file.casm> [--entry=symbol] [--supervisor=true]\n"
               "                [--max-cycles=N] [--cores=1] [--threads-per-core=64]\n"
               "                [--trace] [--trace-json=<path>] [--dump-stats]\n"
               "                [--stats-json=<path>] [--no-lint] [--race-check] [--help]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--help") {
    PrintUsage(stdout);
    return 0;
  }
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  const std::string path = argv[1];
  Config cfg;
  std::string err;
  if (!cfg.ParseArgs(argc - 1, argv + 1, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  const uint64_t cores = cfg.GetUint("cores", 1);
  const uint64_t threads_per_core = cfg.GetUint("threads-per-core", 64);
  const uint64_t max_cycles = cfg.GetUint("max-cycles", 100'000'000);
  const bool supervisor = cfg.GetBool("supervisor", true);
  const bool lint = !cfg.GetBool("no-lint", false);
  const bool trace_text = cfg.GetBool("trace", false);
  const bool dump_stats = cfg.GetBool("dump-stats", false);
  const bool race_check = cfg.GetBool("race-check", false);
  if (cfg.ReportParseErrors()) {
    return 2;
  }
  // Checked before narrowing (--cores=4294967297 must not run on one core):
  // the machine-wide thread count, and so each factor, must fit a ptid.
  constexpr uint64_t kMaxThreads = std::numeric_limits<Ptid>::max();
  if (cores == 0 || threads_per_core == 0 || cores > kMaxThreads / threads_per_core) {
    std::fprintf(stderr,
                 "--cores and --threads-per-core must be at least 1, with at most %llu threads "
                 "in all\n",
                 (unsigned long long)kMaxThreads);
    return 2;
  }
  MachineConfig mc;
  mc.num_cores = static_cast<uint32_t>(cores);
  mc.hwt.threads_per_core = static_cast<uint32_t>(threads_per_core);

  const AssembleResult assembled = Assembler::Assemble(ss.str(), /*base=*/0x1000);
  if (!assembled.ok) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), assembled.error.c_str());
    return 1;
  }
  Machine m(mc);
  // Every thread count below is machine-wide: a ptid names a hardware thread
  // on any core.
  const uint32_t num_threads = m.threads().num_threads();
  const std::vector<HarnessThread> threads = HarnessThreads(assembled.program);
  if (!threads.empty() && threads.back().ptid >= num_threads) {
    std::fprintf(stderr, "%s: t%u_entry names a thread beyond the machine's %u (%u x %u)\n",
                 path.c_str(), threads.back().ptid, num_threads, mc.num_cores,
                 mc.hwt.threads_per_core);
    return 2;
  }
  if (lint) {
    analysis::LintOptions lo;
    lo.entry_symbol = cfg.GetString("entry");
    lo.flow.entry_supervisor = supervisor;
    lo.flow.tdt_capacity = num_threads;
    analysis::PrintDiagnostics(analysis::Lint(assembled.program, lo), std::cerr);
  }

  ThreadTracer tracer;
  const std::string trace_json = cfg.GetString("trace-json");
  if (trace_text || !trace_json.empty()) {
    m.threads().SetTracer(&tracer);
  }
  m.SetHcallHandler([&](Core&, HwThread& t, int64_t code) {
    if (code == 1) {
      std::printf("[hcall] a0 = %llu\n", (unsigned long long)t.ReadGpr(10));
    } else if (code == 2) {
      std::printf("[hcall] a0 = 0x%llx\n", (unsigned long long)t.ReadGpr(10));
    }
  });

  verify::RaceDetector race_detector(num_threads);
  if (race_check) {
    m.SetConcurrencyObserver(&race_detector);
  }

  // Harness images describe their own machine setup; plain programs run on
  // thread 0.
  const Tick start = m.sim().now();
  Ptid p = 0;
  if (threads.empty()) {
    p = m.Load(0, 0, assembled.program, supervisor, cfg.GetString("entry"), /*edp=*/0);
    m.Start(p);
  } else {
    verify::BootHarness(m, assembled.program, threads);
    p = threads.front().ptid;
  }
  // Drain events up to the budget without advancing the clock past the last
  // real event (so the cycle report is meaningful).
  const bool drained = m.DrainBudget(start + max_cycles);

  std::printf("---\n");
  std::printf("cycles     : %llu\n", (unsigned long long)(m.sim().now() - start));
  uint64_t insts = 0;
  for (uint32_t c = 0; c < m.num_cores(); c++) {
    insts += m.core(c).instructions_retired();
  }
  std::printf("instructions: %llu\n", (unsigned long long)insts);
  std::printf("state      : %s%s\n",
              m.halted() ? "HALTED: " : (drained ? "quiesced" : "cycle budget exhausted"),
              m.halted() ? m.halt_reason().c_str() : "");
  std::printf("registers  :");
  for (uint32_t r = 10; r <= 17; r++) {
    std::printf(" a%u=%llu", r - 10, (unsigned long long)m.threads().thread(p).ReadGpr(r));
  }
  std::printf("\n");
  if (trace_text) {
    std::printf("timeline (start..now):\n");
    tracer.DumpTimeline(std::cout, start, m.sim().now() + 1, 72);
  }
  if (!trace_json.empty()) {
    std::ofstream out(trace_json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_json.c_str());
      return 2;
    }
    tracer.DumpChromeTrace(out);
    std::printf("trace      : %s (%zu events%s)\n", trace_json.c_str(), tracer.events().size(),
                tracer.dropped() > 0 ? ", TRUNCATED" : "");
  }
  if (dump_stats) {
    m.sim().stats().Dump(std::cout);
  }
  const std::string stats_json = cfg.GetString("stats-json");
  if (!stats_json.empty()) {
    std::ofstream out(stats_json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", stats_json.c_str());
      return 2;
    }
    m.sim().stats().DumpJson(out);
  }
  if (race_check) {
    for (const std::string& e : race_detector.errors()) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
    for (const verify::RaceReport& r : race_detector.reports()) {
      std::fprintf(stderr, "%s\n",
                   verify::RaceDetector::Format(r, &assembled.program).c_str());
    }
    std::printf("race-check : %s (%llu racy access pair(s))\n",
                race_detector.clean() ? "clean" : "RACES FOUND",
                (unsigned long long)race_detector.race_hits());
    if (!race_detector.clean()) {
      return 3;
    }
  }
  return m.halted() ? 1 : 0;
}
