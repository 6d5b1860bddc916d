// ChaosEngine: deterministic, seedable fault injection over a live Machine.
// Campaigns declare a fault class plus an injection schedule; Arm() installs
// the corresponding hooks on the attached devices and the thread system.
// Every injection becomes a FaultRecord whose detection and recovery ticks
// are filled in either automatically (device observers, exception/wake
// observers) or by the workload via NoteDetected/NoteRecovered — so
// detection-to-recovery latency is measurable per fault class, and every
// fault shows up in the stats registry and (optionally) the Chrome trace.
#ifndef SRC_CHAOS_CHAOS_ENGINE_H_
#define SRC_CHAOS_CHAOS_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/chaos/fault.h"
#include "src/chaos/schedule.h"
#include "src/cpu/machine.h"
#include "src/dev/block_dev.h"
#include "src/dev/fabric.h"
#include "src/dev/msix.h"
#include "src/dev/nic.h"
#include "src/hwt/tracer.h"

namespace casc {

struct CampaignConfig {
  FaultClass fault = FaultClass::kNicDmaBadAddr;
  InjectionSchedule schedule = InjectionSchedule::EveryN(1);
  uint64_t max_faults = 1;      // 0 = unbounded
  // Victim filter for thread-level classes (context-poison, handler-crash):
  // empty = any eligible ptid.
  std::vector<Ptid> targets;
  // Handler-crash: cycles between the handler's wake and its injected fault
  // (models a crash partway through descriptor service).
  Tick crash_delay = 10;
  // Remote-start-race: cycles between the observed cross-core start and the
  // injected colliding stop. Kept past the interconnect hop so the start's
  // wake always lands first and the collision is a true revocation.
  Tick collision_delay = 90;
  // Fabric-link-fault: extra wire latency for the delay flavor (the drop
  // flavor loses the frame outright; the engine's RNG picks per injection).
  Tick link_delay = 20000;
};

class ChaosEngine {
 public:
  struct FaultRecord {
    uint64_t id = 0;
    FaultClass cls = FaultClass::kNicDmaBadAddr;
    Ptid ptid = 0;           // victim thread, when the class has one
    Tick injected_at = 0;
    Tick detected_at = 0;    // 0 = not (yet) detected
    Tick recovered_at = 0;   // 0 = not (yet) recovered
    bool halted = false;     // machine halted before recovery (set by FinishRun)
  };

  ChaosEngine(Machine& machine, uint64_t seed);

  void AddCampaign(const CampaignConfig& config);
  void AttachNic(Nic* nic) { nic_ = nic; }
  void AttachBlock(BlockDevice* block) { block_ = block; }
  void AttachMsix(MsixBridge* msix) { msix_ = msix; }
  void AttachFabric(Fabric* fabric) { fabric_ = fabric; }
  // Chaos marks ("chaos:inject:<class>" / ":detect:" / ":recover:") land on
  // the victim ptid's track as Chrome-trace instant events.
  void SetTracer(ThreadTracer* tracer) { tracer_ = tracer; }

  // Installs hooks for every campaign added so far. Call once, after the
  // devices are attached and before the run.
  void Arm();

  // Workload-side accounting for classes whose detection (and sometimes
  // recovery) is inherently a software observation — a checksum mismatch, a
  // watchdog noticing a silent counter. Both are no-ops when no record of
  // the class is waiting for that transition, so servers can call them
  // unconditionally.
  void NoteDetected(FaultClass cls, Tick now);
  void NoteRecovered(FaultClass cls, Tick now);

  // Marks still-unrecovered records as halted if the machine halted; call
  // after the run, before reading the records.
  void FinishRun();

  const std::vector<FaultRecord>& records() const { return records_; }
  uint64_t injected(FaultClass cls) const { return counts_[Idx(cls)].injected; }
  uint64_t detected(FaultClass cls) const { return counts_[Idx(cls)].detected; }
  uint64_t recovered(FaultClass cls) const { return counts_[Idx(cls)].recovered; }
  uint64_t total_injected() const;

  // The DMA hole used as the "bad address" for NIC payload corruption;
  // registered as an unwritable range by Arm() when a NIC campaign exists.
  static constexpr Addr kDmaHoleBase = 0xdead00000000ull;
  static constexpr uint64_t kDmaHoleSize = 1ull << 20;

 private:
  struct Campaign {
    CampaignConfig config;
    uint64_t fired = 0;
  };
  struct ClassCounts {
    uint64_t injected = 0;
    uint64_t detected = 0;
    uint64_t recovered = 0;
  };

  static uint32_t Idx(FaultClass cls) { return static_cast<uint32_t>(cls); }
  bool TargetsMatch(const Campaign& c, Ptid ptid) const;
  // True (and counts the firing) if the campaign's schedule fires now and
  // its fault budget is not exhausted.
  bool ShouldFire(Campaign& c, Tick now);
  FaultRecord& Inject(FaultClass cls, Ptid ptid, Tick now);
  void Mark(Ptid ptid, const char* what, FaultClass cls);
  FaultRecord* FirstUndetected(FaultClass cls);
  FaultRecord* FirstUnrecovered(FaultClass cls);
  void SetDetected(FaultRecord& r, Tick now);
  void SetRecovered(FaultRecord& r, Tick now);

  void InstallNicHooks();
  void InstallBlockHooks();
  void InstallMsixHooks();
  void InstallFabricHooks();
  void InstallThreadHooks();

  Machine& machine_;
  Rng rng_;  // private stream: injection choices never perturb workload RNG
  Nic* nic_ = nullptr;
  BlockDevice* block_ = nullptr;
  MsixBridge* msix_ = nullptr;
  Fabric* fabric_ = nullptr;
  ThreadTracer* tracer_ = nullptr;
  std::vector<Campaign> campaigns_;
  std::vector<FaultRecord> records_;
  ClassCounts counts_[kNumFaultClasses];
  bool armed_ = false;
  // Active edp-unwritable hole, so detection can re-open the page.
  Addr edp_hole_ = 0;

  StatsRegistry::CounterHandle stat_injected_[kNumFaultClasses];
  StatsRegistry::CounterHandle stat_detected_[kNumFaultClasses];
  StatsRegistry::CounterHandle stat_recovered_[kNumFaultClasses];
  StatsRegistry::HistHandle stat_detect_cycles_[kNumFaultClasses];
  StatsRegistry::HistHandle stat_recovery_cycles_[kNumFaultClasses];
  StatsRegistry::CounterHandle stat_halts_;
};

}  // namespace casc

#endif  // SRC_CHAOS_CHAOS_ENGINE_H_
