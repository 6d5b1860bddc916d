// Differential-fuzzing harness: runs one assembled program on the full
// simulator and on the untimed reference model, extracts comparable
// architectural snapshots, and checks simulator-internal invariants.
//
// Thread participation is declared through the image's tN_* symbols
// (HarnessThreads in src/isa/assembler.h), so repro files are
// self-contained. BootHarness is the one routine that boots such an image.
#ifndef SRC_VERIFY_HARNESS_H_
#define SRC_VERIFY_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cpu/machine.h"
#include "src/isa/assembler.h"
#include "src/verify/chaos_plan.h"
#include "src/verify/ref_model.h"

namespace casc {
namespace verify {

// Boots a harness image on a fresh machine: registers [0, 0x1000) as
// supervisor-only (the page-fault analog's target), loads the image, sets up
// every declared thread and starts the tN_main ones. Threads the image does
// not declare stay disabled at pc 0. Every declared ptid must be below
// m.threads().num_threads(); callers reject an image that declares more.
void BootHarness(Machine& m, const Program& program, const std::vector<HarnessThread>& threads);

// Comparable final state of either executor.
struct Snapshot {
  bool quiesced = false;  // event/step cap not hit
  bool halted = false;
  std::string halt_reason;
  std::vector<RefThread> threads;
  std::vector<uint8_t> mem;  // contents of [0, mem_end)
  Addr mem_end = 0;
  std::array<uint64_t, kNumExceptionTypes> exc_counts{};
};

// Byte ranges ignored in the memory comparison (exception-descriptor tick and
// seq words: timing/global-ordering artifacts, see DESIGN.md §4f).
std::vector<std::pair<Addr, Addr>> DescriptorMaskRanges(
    const std::vector<HarnessThread>& threads);

// Returns "" when equal, else a description of the first difference.
// `a_name`/`b_name` label the two sides in the message.
std::string CompareSnapshots(const Snapshot& a, const Snapshot& b,
                             const std::vector<std::pair<Addr, Addr>>& mem_masks,
                             const std::string& a_name, const std::string& b_name);

// One simulator execution under a given timing configuration.
class SimRun {
 public:
  SimRun(const Program& program, const std::vector<HarnessThread>& threads,
         const MachineConfig& cfg);
  ~SimRun();

  // Runs to quiescence (or the event cap). Returns the snapshot.
  Snapshot Run(uint64_t max_events);

  // Arms a seeded chaos campaign over this run's machine (call before Run /
  // RunBounded; no-op when the plan is disabled or empty). Thread-level
  // fault classes hook the machine directly; a fabric-link spec additionally
  // brings up a two-node background fabric rig — two NICs that the program
  // never touches, fed a fixed burst of host frames — so link faults have
  // traffic to bite without perturbing architectural state (the receiving
  // NIC is never programmed, so every frame drops at the ring and no DMA
  // lands in compared memory).
  void ArmChaos(const ChaosPlan& plan);

  // Bounded-progress run for chaos campaigns: fires events up to `watchdog`
  // ticks of simulated time. Snapshot.quiesced is true only when the machine
  // fully drained — a run still scheduling events at the watchdog comes back
  // !quiesced && !halted, which the differential oracle calls a wedge.
  Snapshot RunBounded(Tick watchdog);

  // Faults actually fired by the armed campaign (0 until ArmChaos).
  uint64_t chaos_injected() const;

  // Post-run internal invariants: context-store slot accounting, storage-tier
  // consistency, vtid-cache coherence with the in-memory TDTs. Returns "" or
  // a description of the first violation.
  std::string CheckInvariants() const;

  Machine& machine() { return machine_; }

 private:
  struct ChaosRig;  // engine + optional fabric rig; lives in harness.cc

  Snapshot Capture(bool quiesced);

  const Program& program_;
  Machine machine_;
  std::unique_ptr<ChaosRig> chaos_;
};

// One reference-model execution under a given architectural configuration.
Snapshot RunOnRef(const Program& program, const std::vector<HarnessThread>& threads,
                  const RefConfig& cfg, uint64_t max_steps);

}  // namespace verify
}  // namespace casc

#endif  // SRC_VERIFY_HARNESS_H_
