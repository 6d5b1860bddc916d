// casc-fuzz: differential fuzzer for the CASC simulator.
//
//   casc-fuzz [--seed=N] [--iters=N] [--points=0,3,6] [--max-events=N]
//             [--out=<dir>] [--determinism] [--race-check] [--cores=N]
//             [--chaos] [--chaos-seed=N] [--fault-mask=N] [--watchdog-ticks=N]
//             [--list-points]
//   casc-fuzz --repro=<file.casm> [--points=...]
//   casc-fuzz --corpus=<dir> [--points=...]
//
// --cores=2 splits each generated program's threads across two simulated
// cores, so starts, monitor handshakes, and rpull/rpush tier moves cross the
// interconnect.
//
// --chaos arms a seeded cross-core fault campaign (chaos_plan.h) over every
// lattice point: --fault-mask picks the classes (bit 0 fabric-link-fault,
// bit 1 migration-crash, bit 2 remote-start-race; default 7 = all),
// --chaos-seed derives each class's cadence and budget, and
// --watchdog-ticks bounds each run (default 2000000). Points where a fault
// fired are held to the liveness oracle — quiesce or halt with a structured
// reason, never keep scheduling events past the watchdog ("wedge") — and
// failures shrink the program and the fault schedule jointly. Chaos repros
// carry the plan in `# chaos-*` header comments; --repro re-arms it
// automatically. --race-check is disabled under --chaos (injected faults
// are deliberate races).
//
// --race-check attaches the vector-clock race detector to every simulator
// run (failure category "race"). Generated programs are race-free by
// construction, so the smoke batch runs with it on in CI; the saved corpus
// does not (it keeps deliberately racy repros).
//
// Each iteration generates a constrained random program and runs it across
// the configuration lattice (see src/verify/diff_runner.h), comparing final
// architectural state, exception streams, and internal invariants against
// the untimed reference model. On a failure, the program is auto-shrunk to a
// minimal repro and written as a `.casm` file (to --out, default cwd).
//
// --repro re-runs one saved case and reports pass/fail; --corpus runs every
// `.casm` file in a directory (regression mode; no shrinking). Exit code:
// 0 clean, 1 failure found, 2 usage error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/rng.h"
#include "src/verify/chaos_plan.h"
#include "src/verify/diff_runner.h"
#include "src/verify/prog_gen.h"
#include "src/verify/shrink.h"

using namespace casc;
using namespace casc::verify;

namespace {

std::vector<size_t> ParsePoints(const std::string& spec) {
  std::vector<size_t> out;
  std::istringstream in(spec);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (!tok.empty()) {
      out.push_back(static_cast<size_t>(std::stoul(tok)));
    }
  }
  return out;
}

void PrintFailure(const char* what, const DiffFailure& f) {
  std::fprintf(stderr, "%s: FAIL [%s/%s]\n  %s\n", what,
               f.config.empty() ? "-" : f.config.c_str(), f.category.c_str(), f.detail.c_str());
}

// Shrink predicate: the candidate must assemble and fail on the same lattice
// point with the same category (invariant checks stay on so invariant
// regressions shrink too; determinism is off — it would double the cost).
FailurePredicate MatchingFailure(const DiffFailure& original, const DiffOptions& opts) {
  return [original, opts](const std::string& candidate) {
    DiffFailure f = RunDifferentialSource(candidate, opts);
    return f.failed && f.config == original.config && f.category == original.category;
  };
}

int RunOneSource(const std::string& source, const std::string& label, const DiffOptions& opts) {
  DiffFailure f = RunDifferentialSource(source, opts);
  if (!f.failed) {
    std::printf("%s: ok\n", label.c_str());
    return 0;
  }
  PrintFailure(label.c_str(), f);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string err;
  if (!cfg.ParseArgs(argc, argv, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }

  if (cfg.GetBool("list-points", false)) {
    const auto& lattice = DefaultLattice();
    for (size_t i = 0; i < lattice.size(); i++) {
      std::printf("%zu: %s\n", i, lattice[i].name.c_str());
    }
    return 0;
  }

  DiffOptions opts;
  opts.max_events = cfg.GetUint("max-events", opts.max_events);
  opts.points = ParsePoints(cfg.GetString("points"));
  opts.check_determinism = cfg.GetBool("determinism", false);
  opts.race_check = cfg.GetBool("race-check", false);
  const uint64_t cores = cfg.GetUint("cores", 1);  // checked before narrowing
  if (cores != 1 && cores != 2) {
    std::fprintf(stderr, "--cores must be 1 or 2\n");
    return 2;
  }
  opts.num_cores = static_cast<uint32_t>(cores);
  if (cfg.GetBool("chaos", false)) {
    const uint64_t mask = cfg.GetUint("fault-mask", kChaosMaskAll);  // checked before narrowing
    if (mask == 0 || mask > kChaosMaskAll) {
      std::fprintf(stderr, "--fault-mask must be 1..%u\n", kChaosMaskAll);
      return 2;
    }
    opts.chaos = MakeChaosPlan(cfg.GetUint("chaos-seed", 1), static_cast<uint32_t>(mask),
                               cfg.GetUint("watchdog-ticks", 2'000'000));
    if (opts.race_check) {
      std::fprintf(stderr,
                   "warning: --chaos disables --race-check (injected faults are deliberate "
                   "races)\n");
      opts.race_check = false;
    }
  }
  const uint64_t seed = cfg.GetUint("seed", 1);
  const uint64_t iters = cfg.GetUint("iters", 100);
  if (cfg.ReportParseErrors()) {
    return 2;
  }
  const std::string repro = cfg.GetString("repro");
  if (!repro.empty()) {
    std::ifstream in(repro);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", repro.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    // Chaos repros are self-contained: re-arm the plan recorded in the
    // header (explicit --chaos flags, when given, win).
    if (!opts.chaos.enabled && ParseChaosPlanHeader(ss.str(), &opts.chaos)) {
      std::fprintf(stderr, "replaying chaos plan from header: %s\n",
                   FormatChaosPlan(opts.chaos).c_str());
      opts.race_check = false;
    }
    return RunOneSource(ss.str(), repro, opts);
  }

  const std::string corpus = cfg.GetString("corpus");
  if (!corpus.empty()) {
    int rc = 0;
    size_t n = 0;
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
      if (entry.path().extension() == ".casm") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      std::ifstream in(path);
      std::ostringstream ss;
      ss << in.rdbuf();
      rc |= RunOneSource(ss.str(), path.string(), opts);
      n++;
    }
    if (n == 0) {
      std::fprintf(stderr, "no .casm files in %s\n", corpus.c_str());
      return 2;
    }
    return rc;
  }

  const std::string out_dir = cfg.GetString("out", ".");

  Rng seeder(seed);
  uint64_t chaos_fired = 0;
  for (uint64_t i = 0; i < iters; i++) {
    const uint64_t case_seed = seeder.Next();
    GenOptions gen;
    gen.seed = case_seed;
    gen.num_cores = opts.num_cores;
    const std::string source = GenerateProgram(gen);
    DiffFailure f = RunDifferentialSource(source, opts);
    if (!f.failed) {
      chaos_fired += f.chaos_injected;
      continue;
    }
    const std::string label = "iter " + std::to_string(i) + " (seed " +
                              std::to_string(case_seed) + ")";
    PrintFailure(label.c_str(), f);
    std::fprintf(stderr, "shrinking (%zu instructions)...\n", CountInstructions(source));
    DiffOptions shrink_opts = opts;
    shrink_opts.check_determinism = false;
    std::string shrunk;
    if (opts.chaos.enabled) {
      // Joint minimization: the fault schedule shrinks with the program, so
      // the repro names the fewest injections that still wedge/diverge.
      PlanShrinkResult r = ShrinkWithPlan(
          source, opts.chaos, [&](const std::string& s, const ChaosPlan& plan) {
            DiffOptions o = shrink_opts;
            o.chaos = plan;
            DiffFailure cf = RunDifferentialSource(s, o);
            return cf.failed && cf.config == f.config && cf.category == f.category;
          });
      shrunk = r.source;
      shrink_opts.chaos = r.plan;
    } else {
      shrunk = Shrink(source, MatchingFailure(f, shrink_opts));
    }
    // The shrunk program fails in the same config+category but its first
    // reported difference may be a simpler one — record its own detail.
    const DiffFailure sf = RunDifferentialSource(shrunk, shrink_opts);
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/repro_" + std::to_string(case_seed) + ".casm";
    std::ofstream of(path);
    if (!of) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    of << "# casc-fuzz repro: seed " << case_seed << ", config " << f.config << ", category "
       << f.category << "\n# original: " << f.detail << "\n# shrunk:   "
       << (sf.failed ? sf.detail : "(no longer fails?)") << "\n";
    if (shrink_opts.chaos.enabled) {
      of << FormatChaosPlanHeader(shrink_opts.chaos);
    }
    of << shrunk;
    of.close();
    std::fprintf(stderr, "minimal repro (%zu instructions): %s\n", CountInstructions(shrunk),
                 path.c_str());
    return 1;
  }
  if (opts.chaos.enabled) {
    std::printf("casc-fuzz: %llu iterations clean (seed %llu, %llu fault(s) injected)\n",
                static_cast<unsigned long long>(iters), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(chaos_fired));
  } else {
    std::printf("casc-fuzz: %llu iterations clean (seed %llu)\n",
                static_cast<unsigned long long>(iters), static_cast<unsigned long long>(seed));
  }
  return 0;
}
