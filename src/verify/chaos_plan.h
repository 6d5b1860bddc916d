// ChaosPlan: a seeded cross-core fault campaign replayed identically at
// every lattice point of a differential run (DESIGN.md §4k).
//
// The plan is the fuzzer-facing face of the chaos engine: a list of
// (fault class, injection cadence, budget) specs derived deterministically
// from a chaos seed and a fault-class mask, plus a bounded-progress watchdog.
// The differential oracle changes under a plan: the untimed reference model
// never models faults, so a lattice point where at least one fault fired is
// held to the liveness contract instead of the architectural compare —
// every run must end quiesced (architectural agreement or a parked recovery
// handshake, with the fault records explaining the divergence) or in a
// structured machine halt, within the watchdog. A machine still scheduling
// events when the watchdog expires is a "wedge": the one outcome fault
// injection must never produce.
#ifndef SRC_VERIFY_CHAOS_PLAN_H_
#define SRC_VERIFY_CHAOS_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/fault.h"
#include "src/sim/types.h"

namespace casc {
namespace verify {

// One armed campaign: inject `cls` on every `every`-th eligible event, at
// most `max_faults` times (0 = unbounded, used by wedge fixtures).
struct ChaosSpec {
  FaultClass cls = FaultClass::kMigrationCrash;
  uint64_t every = 3;
  uint64_t max_faults = 2;
};

struct ChaosPlan {
  bool enabled = false;
  uint64_t seed = 1;                 // seeds the engine's private RNG
  Tick watchdog_ticks = 2'000'000;   // bounded-progress limit per point
  std::vector<ChaosSpec> specs;
};

// Fault-mask bits for MakeChaosPlan, canonical order (--fault-mask).
inline constexpr uint32_t kChaosMaskFabricLink = 1u << 0;
inline constexpr uint32_t kChaosMaskMigrationCrash = 1u << 1;
inline constexpr uint32_t kChaosMaskRemoteStartRace = 1u << 2;
inline constexpr uint32_t kChaosMaskAll =
    kChaosMaskFabricLink | kChaosMaskMigrationCrash | kChaosMaskRemoteStartRace;

// Derives a plan from (seed, mask): one spec per set mask bit, cadence and
// budget drawn from a private RNG stream so the same seed always yields the
// same campaign — across lattice points and re-runs.
ChaosPlan MakeChaosPlan(uint64_t seed, uint32_t fault_mask, Tick watchdog_ticks = 2'000'000);

// Repro-header round trip. FormatChaosPlanHeader emits comment lines
// (`# chaos-seed: ...`, `# chaos-watchdog: ...`, one `# chaos-spec: <class>
// every=N max=N` per spec) that assemble as comments, so a chaos repro stays
// a self-contained .casm file. ParseChaosPlanHeader scans source for those
// lines; returns false (and leaves *out untouched) when none are present.
std::string FormatChaosPlanHeader(const ChaosPlan& plan);
bool ParseChaosPlanHeader(const std::string& source, ChaosPlan* out);

// One-line summary for failure details and logs:
// "seed=5 watchdog=2000000 specs=[migration-crash every=3 max=2, ...]".
std::string FormatChaosPlan(const ChaosPlan& plan);

}  // namespace verify
}  // namespace casc

#endif  // SRC_VERIFY_CHAOS_PLAN_H_
