// ThreadSystem: the machine-wide implementation of the paper's hardware
// threading model (§3). It owns every hardware thread context, the per-core
// scheduling rotations and context stores, and implements the semantics of
// the proposed instructions (start/stop, rpull/rpush, invtid, monitor/mwait),
// the TDT security model (§3.2), and descriptor-based exceptions.
#ifndef SRC_HWT_THREAD_SYSTEM_H_
#define SRC_HWT_THREAD_SYSTEM_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/hwt/concurrency_observer.h"
#include "src/hwt/context_store.h"
#include "src/hwt/exception.h"
#include "src/hwt/hw_thread.h"
#include "src/hwt/hwt_config.h"
#include "src/hwt/perm.h"
#include "src/hwt/sched_queue.h"
#include "src/hwt/tracer.h"
#include "src/hwt/tdt.h"
#include "src/mem/memory_system.h"
#include "src/sim/simulation.h"

namespace casc {

// Issue cost of the start/stop instructions themselves (nanosecond scale).
inline constexpr Tick kStartIssueCycles = 3;
inline constexpr Tick kStopIssueCycles = 3;

// Extra latency for starting/waking a ptid that lives on another core
// (interconnect hop; replaces the baseline IPI).
inline constexpr Tick kRemoteStartCycles = 30;

// Hardware cost to format + write an exception descriptor (§3).
inline constexpr Tick kExceptionWriteCycles = 30;

// Latency of a vtid translation that hits the per-thread translation cache
// (analogous to a tiny TLB over the TDT).
inline constexpr Tick kVtidCacheHitCycles = 1;

// Outcome of one ISA-level thread-management operation.
struct OpResult {
  bool ok = true;       // false: an exception was raised and the issuer disabled
  Tick latency = 0;     // cycles charged to the issuing thread
  uint64_t value = 0;   // rpull result / csr read value
};

class ThreadSystem {
 public:
  ThreadSystem(Simulation& sim, MemorySystem& mem, const HwtConfig& config, uint32_t num_cores);

  const HwtConfig& config() const { return config_; }
  uint32_t num_cores() const { return num_cores_; }
  uint32_t num_threads() const { return static_cast<uint32_t>(threads_.size()); }
  Ptid PtidOf(CoreId core, uint32_t local) const { return core * config_.threads_per_core + local; }
  CoreId CoreOf(Ptid ptid) const { return ptid / config_.threads_per_core; }

  HwThread& thread(Ptid ptid) { return *threads_[ptid]; }
  const HwThread& thread(Ptid ptid) const { return *threads_[ptid]; }
  SchedQueue& queue(CoreId core) { return queues_[core]; }
  ContextStore& store(CoreId core) { return *stores_[core]; }

  // Invoked whenever a thread on `core` becomes runnable; lets an idle core
  // re-arm its tick event.
  void SetWakeHook(CoreId core, std::function<void()> hook) {
    wake_hooks_[core] = std::move(hook);
  }

  // ---- Proposed-instruction semantics (issued by `issuer`) ---------------
  OpResult Start(Ptid issuer, Vtid vtid);
  OpResult Stop(Ptid issuer, Vtid vtid);
  OpResult Rpull(Ptid issuer, Vtid vtid, uint32_t remote_reg);
  OpResult Rpush(Ptid issuer, Vtid vtid, uint32_t remote_reg, uint64_t value);
  OpResult Invtid(Ptid issuer, Vtid vtid, Vtid remote_vtid);
  OpResult Monitor(Ptid issuer, Addr addr);
  // Disarms one watched line (ring slots re-target their guard watches per
  // ticket; without disarm they would exhaust max_watches_per_thread).
  // Idempotent, never faults.
  OpResult Unmonitor(Ptid issuer, Addr addr);

  struct MwaitResult {
    bool blocked = false;  // true: thread is now kWaiting
    Tick latency = 0;
  };
  MwaitResult Mwait(Ptid issuer);

  // ---- Control registers --------------------------------------------------
  OpResult ReadCsr(Ptid issuer, Csr csr);
  OpResult WriteCsr(Ptid issuer, Csr csr, uint64_t value);

  // ---- Exceptions (§3: descriptor write + disable; no trap) ---------------
  void RaiseException(Ptid ptid, ExceptionType type, Addr addr, uint64_t errcode) {
    RaiseExceptionAt(ptid, type, addr, errcode, /*depth=*/0);
  }

  // ---- Direct transitions (hardware events, runtime setup) ----------------
  // Wake path including context-restore cost; `extra_delay` models e.g. the
  // interconnect hop of a cross-core start.
  void MakeRunnable(Ptid ptid, Tick extra_delay = 0, TraceCause cause = TraceCause::kStart);
  void Disable(Ptid ptid, TraceCause cause = TraceCause::kStop);

  // Optional state-transition observer (not owned; nullptr disables).
  void SetTracer(ThreadTracer* tracer) { tracer_ = tracer; }

  // Optional happens-before event observer for the dynamic race detector
  // (not owned; nullptr disables — the default, zero-cost configuration).
  void SetConcurrencyObserver(ConcurrencyObserver* observer) { chb_ = observer; }
  ConcurrencyObserver* concurrency_observer() const { return chb_; }

  // ---- Fault-injection & observation hooks (chaos engine, tests) ----------
  // All of these sit off the per-instruction path: they fire on wakes,
  // exception raises, and descriptor deliveries only.
  using WakeObserver = std::function<void(Ptid, TraceCause)>;
  void AddWakeObserver(WakeObserver fn) { wake_observers_.push_back(std::move(fn)); }
  using ExceptionObserver = std::function<void(Ptid, ExceptionType, Addr, uint32_t depth)>;
  void AddExceptionObserver(ExceptionObserver fn) {
    exception_observers_.push_back(std::move(fn));
  }
  using DeliveryObserver = std::function<void(const ExceptionDescriptor&, Addr edp, uint32_t depth)>;
  void AddDeliveryObserver(DeliveryObserver fn) {
    delivery_observers_.push_back(std::move(fn));
  }
  // Consulted once per context restore that actually moves state (restore
  // latency > 0). Returning true poisons the restored image: instead of
  // resuming, the thread raises kContextPoison when the transfer completes.
  using RestoreFaultHook = std::function<bool(Ptid)>;
  void SetRestoreFaultHook(RestoreFaultHook fn) { restore_fault_hook_ = std::move(fn); }
  // Consulted once per validated rpull/rpush, after the permission and
  // target-disabled checks but before any state moves. Returning true kills
  // the migration mid-move: the op fails and the issuer raises
  // kMigrationAbort with the target ptid in errcode (the target stays
  // disabled and untouched — the §4 tier move is transactional).
  using MigrationFaultHook = std::function<bool(Ptid issuer, Ptid target, bool is_push)>;
  void SetMigrationFaultHook(MigrationFaultHook fn) { migration_fault_hook_ = std::move(fn); }
  // Observes every cross-core start (issuer and target on different cores),
  // after the wake is already in flight. The chaos engine uses it to line up
  // a colliding stop.
  using RemoteStartObserver = std::function<void(Ptid issuer, Ptid target)>;
  void SetRemoteStartObserver(RemoteStartObserver fn) {
    remote_start_observer_ = std::move(fn);
  }

  // Called by the core when it picks a thread that still needs its state
  // restored (prefetch-on-wake disabled). Sets ready_at; the thread will not
  // issue until the restore completes.
  bool NeedsRestore(Ptid ptid) const { return needs_restore_[ptid]; }
  void BeginDemandRestore(Ptid ptid);

  // vtid -> (ptid, perms) translation, through the issuer's TDT and vtid
  // cache. Public for tests and for the runtime.
  Translation Translate(Ptid issuer, Vtid vtid, Tick* latency);

  // Read-only view of a thread's translation cache, for invariant checks
  // (every cached entry must agree with a fresh walk of the current TDT).
  const VtidCache& vtid_cache(Ptid ptid) const { return vtid_caches_[ptid]; }

  // ---- Machine halt (triple-fault analog, §3.2) ---------------------------
  bool halted() const { return halted_; }
  const std::string& halt_reason() const { return halt_reason_; }
  // Structured reason; halt_reason() stays the human-readable string (and
  // the differential-fuzz oracle compares those strings, so their format is
  // load-bearing).
  const HaltInfo& halt_info() const { return halt_info_; }
  void Halt(const std::string& reason);

  // Convenience for runtime/tests: initialize a thread's state in place.
  void InitThread(Ptid ptid, Addr pc, bool supervisor, Addr edp = 0, Addr tdtr = 0,
                  uint64_t tdt_size = 0);

 private:
  // Returns true if `issuer` may perform an op requiring `required_perms` on
  // the translated target; raises the appropriate exception otherwise.
  bool CheckTranslated(Ptid issuer, Vtid vtid, const Translation& t, uint8_t required_perms,
                       Tick latency, OpResult* result);
  void NotifyWake(CoreId core);
  void OnMonitorWake(Ptid ptid);
  uint64_t* RemoteRegSlot(HwThread& t, uint32_t remote_reg);
  void RaiseExceptionAt(Ptid ptid, ExceptionType type, Addr addr, uint64_t errcode,
                        uint32_t depth);
  void DeliverOrEscalate(const ExceptionDescriptor& d, Addr edp, uint32_t depth);
  void HaltWith(const HaltInfo& info, const std::string& reason);
  void MaybePoisonRestore(Ptid ptid, Tick restore);

  Simulation& sim_;
  MemorySystem& mem_;
  HwtConfig config_;
  uint32_t num_cores_;
  std::vector<std::unique_ptr<HwThread>> threads_;
  std::vector<SchedQueue> queues_;
  std::vector<std::unique_ptr<ContextStore>> stores_;
  std::vector<VtidCache> vtid_caches_;  // per ptid
  std::vector<std::function<void()>> wake_hooks_;
  std::vector<uint8_t> needs_restore_;  // per ptid (bool)
  ThreadTracer* tracer_ = nullptr;
  ConcurrencyObserver* chb_ = nullptr;
  std::vector<WakeObserver> wake_observers_;
  std::vector<ExceptionObserver> exception_observers_;
  std::vector<DeliveryObserver> delivery_observers_;
  RestoreFaultHook restore_fault_hook_;
  MigrationFaultHook migration_fault_hook_;
  RemoteStartObserver remote_start_observer_;
  bool halted_ = false;
  std::string halt_reason_;
  HaltInfo halt_info_;
  uint64_t exception_seq_ = 0;

  StatsRegistry::CounterHandle stat_starts_;
  StatsRegistry::CounterHandle stat_stops_;
  StatsRegistry::CounterHandle stat_exceptions_;
  StatsRegistry::CounterHandle stat_mwait_blocks_;
  StatsRegistry::CounterHandle stat_mwait_immediate_;
  StatsRegistry::CounterHandle stat_vtid_hits_;
  StatsRegistry::CounterHandle stat_vtid_misses_;
  StatsRegistry::CounterHandle stat_escalations_;
  StatsRegistry::CounterHandle stat_restore_poisons_;
  // Per-type exception counters, interned up front so RaiseException never
  // builds a "hwt.exception.<name>" string on the fault path.
  std::array<StatsRegistry::CounterHandle, kNumExceptionTypes> stat_exception_by_type_;
};

}  // namespace casc

#endif  // SRC_HWT_THREAD_SYSTEM_H_
