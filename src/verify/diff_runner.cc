#include "src/verify/diff_runner.h"

#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "src/verify/prog_gen.h"
#include "src/verify/race_detector.h"

namespace casc {
namespace verify {

namespace {

MachineConfig BaseMachine(uint32_t num_cores) {
  MachineConfig cfg;
  cfg.num_cores = num_cores;
  cfg.hwt.threads_per_core = kGenThreads / num_cores;
  return cfg;
}

std::vector<LatticePoint> BuildLattice(uint32_t num_cores) {
  std::vector<LatticePoint> points;

  points.push_back({"default", BaseMachine(num_cores)});

  {
    LatticePoint p{"smt1", BaseMachine(num_cores)};
    p.machine.hwt.smt_width = 1;
    points.push_back(p);
  }
  {
    LatticePoint p{"smt4-tiny-tiers", BaseMachine(num_cores)};
    p.machine.hwt.smt_width = 4;
    p.machine.hwt.rf_slots = 2;
    p.machine.hwt.l2_slots = 2;
    p.machine.hwt.l3_slots = 2;
    points.push_back(p);
  }
  {
    LatticePoint p{"nodirty", BaseMachine(num_cores)};
    p.machine.hwt.dirty_register_tracking = false;
    points.push_back(p);
  }
  {
    LatticePoint p{"smt1-rf-only", BaseMachine(num_cores)};
    p.machine.hwt.smt_width = 1;
    p.machine.hwt.prefetch_on_wake = false;
    p.machine.hwt.l2_slots = 0;
    p.machine.hwt.l3_slots = 0;
    points.push_back(p);
  }
  {
    LatticePoint p{"monitor2", BaseMachine(num_cores)};
    p.machine.mem.monitor.max_watches_per_thread = 2;
    points.push_back(p);
  }
  {
    LatticePoint p{"secretkey", BaseMachine(num_cores)};
    p.machine.hwt.security_model = SecurityModel::kSecretKey;
    points.push_back(p);
  }
  return points;
}

// Architectural signature: the parameters that are allowed to change
// architectural outcomes. Lattice points with equal signatures must agree
// with each other and with one shared reference run.
using ArchSig = std::tuple<uint8_t, uint32_t, uint32_t, uint32_t, uint32_t>;

ArchSig SignatureOf(const LatticePoint& p) {
  return {static_cast<uint8_t>(p.machine.hwt.security_model), p.machine.hwt.threads_per_core,
          p.machine.num_cores, p.machine.mem.monitor.max_watches_per_thread,
          p.machine.mem.monitor.max_watch_lines};
}

RefConfig RefConfigFor(const LatticePoint& p) {
  RefConfig cfg;
  cfg.security_model = p.machine.hwt.security_model;
  cfg.num_threads = p.machine.hwt.threads_per_core * p.machine.num_cores;
  cfg.threads_per_core = p.machine.num_cores > 1 ? p.machine.hwt.threads_per_core : 0;
  cfg.max_watches_per_thread = p.machine.mem.monitor.max_watches_per_thread;
  cfg.max_watch_lines = p.machine.mem.monitor.max_watch_lines;
  return cfg;
}

DiffFailure Fail(const std::string& config, const std::string& category,
                 const std::string& detail) {
  DiffFailure f;
  f.failed = true;
  f.config = config;
  f.category = category;
  f.detail = detail;
  return f;
}

std::string StatsJson(Machine& machine) {
  std::ostringstream os;
  machine.sim().stats().DumpJson(os);
  return os.str();
}

}  // namespace

const std::vector<LatticePoint>& DefaultLattice() {
  static const std::vector<LatticePoint> kLattice = BuildLattice(1);
  return kLattice;
}

const std::vector<LatticePoint>& LatticeFor(uint32_t num_cores) {
  if (num_cores <= 1) {
    return DefaultLattice();
  }
  static const std::vector<LatticePoint> kTwoCore = BuildLattice(2);
  return kTwoCore;
}

DiffFailure RunDifferential(const Program& program, const DiffOptions& opts) {
  const std::vector<LatticePoint>& lattice = LatticeFor(opts.num_cores);
  std::vector<size_t> points = opts.points;
  if (points.empty()) {
    for (size_t i = 0; i < lattice.size(); i++) {
      points.push_back(i);
    }
  }
  for (size_t i : points) {
    if (i >= lattice.size()) {
      return Fail("", "setup", "lattice point index out of range: " + std::to_string(i));
    }
  }

  const std::vector<HarnessThread> threads = HarnessThreads(program);
  if (!threads.empty() && threads.back().ptid >= kGenThreads) {
    return Fail("", "setup",
                "t" + std::to_string(threads.back().ptid) + "_entry declares a thread beyond the " +
                    std::to_string(kGenThreads) + " every lattice machine has");
  }
  const auto masks = DescriptorMaskRanges(threads);

  // One reference run per architectural signature.
  std::map<ArchSig, Snapshot> oracles;
  for (size_t i : points) {
    const LatticePoint& p = lattice[i];
    const ArchSig sig = SignatureOf(p);
    if (oracles.count(sig)) {
      continue;
    }
    Snapshot ref = RunOnRef(program, threads, RefConfigFor(p), opts.oracle_step_cap);
    if (!ref.quiesced) {
      return Fail(p.name, "timeout", "reference model hit the step cap (generated program "
                  "violates the termination contract, or the cap is too low)");
    }
    oracles.emplace(sig, std::move(ref));
  }

  const bool chaos = opts.chaos.enabled && !opts.chaos.specs.empty();
  uint64_t fired_total = 0;
  for (size_t i : points) {
    const LatticePoint& p = lattice[i];
    SimRun run(program, threads, p.machine);
    // Attach before any event runs: boot starts fire their release edges
    // into all-zero clocks, which is exactly the initial state. Never under
    // chaos: injected faults are deliberate races by construction.
    std::unique_ptr<RaceDetector> detector;
    if (opts.race_check && !chaos) {
      detector = std::make_unique<RaceDetector>(run.machine().threads().num_threads());
      run.machine().SetConcurrencyObserver(detector.get());
    }
    if (chaos) {
      run.ArmChaos(opts.chaos);
    }
    Snapshot sim = chaos ? run.RunBounded(opts.chaos.watchdog_ticks) : run.Run(opts.max_events);
    if (chaos) {
      const uint64_t fired = run.chaos_injected();
      fired_total += fired;
      if (fired > 0) {
        // Liveness oracle: a faulted run may legitimately diverge from the
        // fault-free reference, but it must still make bounded progress —
        // quiesce (agreement or a parked recovery handshake, with the fault
        // records explaining the divergence) or halt with a structured
        // reason. Anything still scheduling events at the watchdog wedged.
        if (!sim.quiesced && !(sim.halted && run.machine().halt_why() != HaltReason::kNone)) {
          return Fail(p.name, "wedge",
                      std::to_string(fired) + " fault(s) fired and the machine was still "
                      "scheduling events at the " +
                      std::to_string(opts.chaos.watchdog_ticks) + "-tick watchdog (plan " +
                      FormatChaosPlan(opts.chaos) + ")");
        }
        // Quiesced faulted runs still honor the simulator's own invariants
        // (tier accounting survives aborted migrations by design); halted
        // runs stop mid-flight and are exempt, as in the fault-free path.
        if (sim.quiesced && opts.check_invariants && !sim.halted) {
          std::string inv = run.CheckInvariants();
          if (!inv.empty()) {
            return Fail(p.name, "invariant", inv + " (after " + std::to_string(fired) +
                        " injected fault(s))");
          }
        }
        continue;
      }
      // No fault fired (nothing eligible before quiescence): the plan is
      // inert and the ordinary differential contract applies below.
      if (!sim.quiesced && !sim.halted) {
        return Fail(p.name, "wedge",
                    "no faults fired but the machine was still scheduling events at the " +
                    std::to_string(opts.chaos.watchdog_ticks) + "-tick watchdog");
      }
      // DrainBudget stops at a halt with stale events still queued, where
      // the fault-free path drains them; normalize so the halt-only compare
      // below sees the same quiescence flag the reference reports.
      if (sim.halted) {
        sim.quiesced = true;
      }
    } else if (!sim.quiesced) {
      return Fail(p.name, "quiesce", "simulator hit the event cap before quiescing");
    }
    const Snapshot& ref = oracles.at(SignatureOf(p));
    std::string diff = CompareSnapshots(ref, sim, masks, "ref", "sim:" + p.name);
    if (!diff.empty()) {
      // Coarse category from the first difference, for shrinker matching.
      std::string category = "state";
      if (diff.find("halt") != std::string::npos) {
        category = "halt";
      } else if (diff.find("mem[") != std::string::npos) {
        category = "mem";
      } else if (diff.find("exception") != std::string::npos) {
        category = "exceptions";
      }
      return Fail(p.name, category, diff);
    }
    if (opts.check_invariants) {
      std::string inv = run.CheckInvariants();
      if (!inv.empty()) {
        return Fail(p.name, "invariant", inv);
      }
    }
    if (detector && !detector->errors().empty()) {
      return Fail(p.name, "race", detector->errors().front());
    }
    if (detector && !detector->clean()) {
      return Fail(p.name, "race",
                  RaceDetector::Format(detector->reports().front(), &program) +
                      " (" + std::to_string(detector->race_hits()) + " racy pair(s))");
    }
  }

  if (opts.check_determinism && !points.empty()) {
    // Under chaos both runs arm the same plan, so the stats JSON comparison
    // also covers the injection/detection/recovery counters: the campaign
    // must replay tick-for-tick from its seed.
    const LatticePoint& p = lattice[points[0]];
    SimRun a(program, threads, p.machine);
    SimRun b(program, threads, p.machine);
    if (chaos) {
      a.ArmChaos(opts.chaos);
      b.ArmChaos(opts.chaos);
      a.RunBounded(opts.chaos.watchdog_ticks);
      b.RunBounded(opts.chaos.watchdog_ticks);
    } else {
      a.Run(opts.max_events);
      b.Run(opts.max_events);
    }
    if (StatsJson(a.machine()) != StatsJson(b.machine())) {
      return Fail(p.name, "determinism", "two identical runs produced different stats JSON");
    }
  }

  DiffFailure ok;
  ok.chaos_injected = fired_total;
  return ok;
}

DiffFailure RunDifferentialSource(const std::string& source, const DiffOptions& opts) {
  AssembleResult res = Assembler::Assemble(source, 0x1000);
  if (!res.ok) {
    return Fail("", "assemble", res.error);
  }
  return RunDifferential(res.program, opts);
}

}  // namespace verify
}  // namespace casc
