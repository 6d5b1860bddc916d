// Machine: the top-level simulated computer — simulation context, memory
// system, thread system, and cores — plus convenience helpers for loading
// programs, binding native coroutines, and driving the simulation.
#ifndef SRC_CPU_MACHINE_H_
#define SRC_CPU_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cpu/core.h"
#include "src/hwt/thread_system.h"
#include "src/isa/assembler.h"
#include "src/mem/memory_system.h"
#include "src/sim/simulation.h"

namespace casc {

struct MachineConfig {
  double ghz = 3.0;
  uint64_t seed = 1;
  uint32_t num_cores = 1;
  // Accepted and ignored: the simulator has one single-queue engine. Kept
  // only because the request benchmark still sets it; the next benchmark
  // change removes it.
  uint32_t host_threads = 0;
  MemConfig mem;
  HwtConfig hwt;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = MachineConfig{});

  const MachineConfig& config() const { return config_; }
  Simulation& sim() { return sim_; }
  MemorySystem& mem() { return *mem_; }
  ThreadSystem& threads() { return *ts_; }
  Core& core(CoreId id) { return *cores_[id]; }
  uint32_t num_cores() const { return static_cast<uint32_t>(cores_.size()); }

  // Loads an assembled program into memory and points a hardware thread at
  // `entry` (a program symbol, or the program base if empty). The thread
  // stays disabled until Start().
  Ptid Load(CoreId core, uint32_t local_thread, const Program& program, bool supervisor,
            const std::string& entry = "", Addr edp = 0);

  // Assembles `source` and loads it (aborts the test/bench on assembly
  // errors — convenience for inline assembly snippets).
  Ptid LoadSource(CoreId core, uint32_t local_thread, const std::string& source, bool supervisor,
                  const std::string& entry = "", Addr edp = 0, Addr base = 0x1000);

  // Binds a native coroutine program to a hardware thread.
  Ptid BindNative(CoreId core, uint32_t local_thread, NativeProgram program, bool supervisor,
                  Addr edp = 0);

  // Makes a thread runnable (host-side boot; models the platform firmware
  // starting the initial kernel thread).
  void Start(Ptid ptid);

  void SetHcallHandler(Core::HcallHandler handler);

  // Attaches/detaches a dynamic race detector to the thread system and every
  // core (casc-race's `--race-check`; nullptr restores the zero-cost default).
  void SetConcurrencyObserver(ConcurrencyObserver* observer);

  // --- driving the simulation ---------------------------------------------
  void RunFor(Tick cycles) { RunUntil(sim_.now() + cycles); }
  // Advances simulated time to `tick`.
  void RunUntil(Tick tick) { sim_.queue().RunUntil(tick); }
  // Runs until the event queue drains or the machine halts. Returns false if
  // the event cap was hit (runaway guard). `max_events` counts dispatched
  // events only: ticks a core takes in place (EventQueue::AdvanceIfIdle) are
  // free, and a bulk step of quiet core ticks counts once however many
  // cores and cycles it covers, so the cap bounds dispatches, not simulated
  // cycles.
  bool RunToQuiescence(uint64_t max_events = 200'000'000);
  // Fires every event up to and including `limit`, stopping early on a
  // machine halt, without advancing the clock past the last event actually
  // fired (so cycle reports stay meaningful). Returns true if the machine
  // fully quiesced — no live events remain anywhere.
  bool DrainBudget(Tick limit);

  // First-class halt reporting: the string form for logs (and the
  // differential oracle), the structured form for tests and the chaos
  // engine. A fault whose handler chain ends uninstalled halts with
  // kUnhandledException / kHandlerChainExhausted — never an assert.
  using HaltReason = ::casc::HaltReason;
  bool halted() const { return ts_->halted(); }
  const std::string& halt_reason() const { return ts_->halt_reason(); }
  HaltReason halt_why() const { return ts_->halt_info().reason; }
  const HaltInfo& halt_info() const { return ts_->halt_info(); }

 private:
  MachineConfig config_;
  Simulation sim_;
  std::unique_ptr<MemorySystem> mem_;
  std::unique_ptr<ThreadSystem> ts_;
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace casc

#endif  // SRC_CPU_MACHINE_H_
