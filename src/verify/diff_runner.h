// Differential runner: executes one program across a lattice of simulator
// timing configurations, checks each against the untimed reference model for
// its architectural signature, and cross-checks simulator-internal
// invariants. Timing parameters (SMT width, storage tiers, dirty
// tracking, prefetch) must never change architectural outcomes; architectural
// parameters (security model, monitor capacities) get their own oracle run.
#ifndef SRC_VERIFY_DIFF_RUNNER_H_
#define SRC_VERIFY_DIFF_RUNNER_H_

#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/verify/harness.h"

namespace casc {
namespace verify {

struct LatticePoint {
  std::string name;
  MachineConfig machine;
};

// The built-in configuration lattice. Points 0..4 share one architectural
// signature; "monitor2" narrows the per-thread watch cap and "secretkey"
// switches the security model (each gets its own reference run).
const std::vector<LatticePoint>& DefaultLattice();
// The same lattice shapes with kGenThreads split across `num_cores` cores
// (threads_per_core = kGenThreads / num_cores). LatticeFor(1) is
// DefaultLattice().
const std::vector<LatticePoint>& LatticeFor(uint32_t num_cores);

struct DiffOptions {
  uint64_t max_events = 2'000'000;      // simulator event cap per point
  uint64_t oracle_step_cap = 1'000'000; // reference-model step cap
  bool check_invariants = true;
  bool check_determinism = false;  // re-run point 0, compare stats JSON
  // Attach the vector-clock race detector to every simulator run and fail
  // (category "race") if any run observes a racy access pair. Only enable
  // for programs meant to be race-free: the generated-program smoke batch,
  // not the saved corpus (which keeps deliberately racy repros).
  bool race_check = false;
  // Core count for every lattice point (LatticeFor). 2 splits the generated
  // program's threads across two cores so starts, sync handshakes, and
  // rpull/rpush tier moves cross the interconnect.
  uint32_t num_cores = 1;
  // Seeded fault campaign replayed identically at every lattice point
  // (chaos_plan.h). When enabled, each point runs under the plan's
  // bounded-progress watchdog instead of the event cap, and the oracle
  // splits: points where no fault fired keep the full architectural compare
  // against the reference (which never models faults); points where at least
  // one fault fired are held to the liveness contract — quiesce, or halt
  // with a structured HaltReason, within the watchdog. A machine still
  // scheduling events at the watchdog fails with category "wedge".
  // race_check is ignored under chaos: injected faults are deliberate races.
  ChaosPlan chaos;
  std::vector<size_t> points;      // lattice indices; empty = all
};

struct DiffFailure {
  bool failed = false;
  // Faults fired across all points run (chaos mode; 0 otherwise). Filled in
  // on success too, so callers can report whether a campaign actually bit.
  uint64_t chaos_injected = 0;
  std::string config;    // lattice point name ("" for oracle/setup issues)
  std::string category;  // "assemble","timeout","halt","state","mem",
                         // "exceptions","quiesce","invariant","determinism",
                         // "race","wedge"
  std::string detail;
};

// Runs the program across the selected lattice points. Returns the first
// failure, or a non-failed DiffFailure when every comparison passes.
DiffFailure RunDifferential(const Program& program, const DiffOptions& opts);

// Assembles `source` at base 0x1000 first; assembly errors come back as
// category "assemble".
DiffFailure RunDifferentialSource(const std::string& source, const DiffOptions& opts);

}  // namespace verify
}  // namespace casc

#endif  // SRC_VERIFY_DIFF_RUNNER_H_
