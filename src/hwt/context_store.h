// Per-core tiered storage for hardware-thread register state (§4 "Storage
// for Thread State"): a large on-core register file backed by L2/L3 slots
// and DRAM spill. Restores are charged on the woken thread's critical path;
// eviction write-backs ride the wide cache links in the background and are
// only counted.
#ifndef SRC_HWT_CONTEXT_STORE_H_
#define SRC_HWT_CONTEXT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/hwt/hw_thread.h"
#include "src/hwt/hwt_config.h"
#include "src/mem/memory_system.h"
#include "src/sim/simulation.h"
#include "src/sim/types.h"

namespace casc {

// Cost to begin executing a thread whose state is in the large register
// file: "proportional to the length of the pipeline, roughly 20 clock
// cycles in modern processors" (§4).
inline constexpr Tick kPipelineRestoreCycles = 20;

class ContextStore {
 public:
  ContextStore(Simulation& sim, MemorySystem& mem, const HwtConfig& config, CoreId core);

  // Registers a thread as resident in the register file if a slot is free,
  // otherwise in the lowest tier with space. Called once per ptid at reset.
  void AdmitThread(HwThread& thread);

  // Ensures `thread` is register-file resident, evicting the LRU unpinned
  // RF thread if needed. Returns the restore latency to charge (0 if it was
  // already in the RF).
  Tick EnsureResident(HwThread& thread);

  // Marks a use (keeps the thread warm in the RF LRU order). Defined inline:
  // it runs once per retired instruction from Core::Step and must reduce to
  // one array load plus one counter store at the call site.
  void Touch(HwThread& thread) {
    const Ptid ptid = thread.ptid();
    if (ptid >= rf_pos_.size() || !rf_pos_[ptid].resident) {
      return;
    }
    rf_pos_[ptid].stamp = ++use_clock_;
  }

  // Same as `k` >= 1 rounds of Touch over order[0..n), in closed form: only
  // the last round's stamps survive, so the use-clock skips the k - 1
  // earlier rounds (one tick per resident thread each) and the last round
  // touches in order.
  void TouchRepeated(uint64_t k, HwThread* const* order, size_t n) {
    uint64_t resident = 0;
    for (size_t i = 0; i < n; i++) {
      const Ptid ptid = order[i]->ptid();
      resident += ptid < rf_pos_.size() && rf_pos_[ptid].resident;
    }
    use_clock_ += (k - 1) * resident;
    for (size_t i = 0; i < n; i++) {
      Touch(*order[i]);
    }
  }

  // Restore latency if the thread had to be fetched from its current tier
  // right now, without side effects.
  Tick RestoreLatency(const HwThread& thread) const;

  uint32_t rf_occupancy() const { return static_cast<uint32_t>(rf_members_.size()); }

  // Tier-slot accounting, exposed so tests and stats exports can check the
  // invariant l2_used() <= l2_slots / l3_used() <= l3_slots.
  uint32_t l2_used() const { return l2_used_; }
  uint32_t l3_used() const { return l3_used_; }

  // Test support: the thread's LRU stamp (0 if it was never RF-resident).
  uint64_t lru_stamp(Ptid ptid) const { return ptid < rf_pos_.size() ? rf_pos_[ptid].stamp : 0; }

  // Test/bench support: forcibly places a thread's saved state in `tier`,
  // releasing any slot it held (so e.g. repeated DRAM-tier wakes can be
  // measured without reconstructing the machine).
  void ForceTier(HwThread& thread, StorageTier tier);

 private:
  // Transfer size honoring dirty-register tracking (§4 optimization).
  uint32_t TransferBytes(const HwThread& thread) const;
  // Demotes the LRU unpinned RF-resident thread one level down. Returns
  // false if every RF thread is pinned (caller then pays RF latency anyway).
  bool EvictOne(Ptid except);
  StorageTier PickSpillTier();
  void ReleaseTierSlot(StorageTier tier);
  void AcquireTierSlot(StorageTier tier);
  void AssertSlotAccounting() const;

  Simulation& sim_;
  MemorySystem& mem_;
  const HwtConfig& config_;
  CoreId core_;

  // RF residency with timestamp LRU. Touch runs once per retired
  // instruction, so it must be a plain array load plus a counter store — no
  // list splice, no pointer chasing. rf_members_ is unordered (swap-erase);
  // recency lives in the per-ptid stamp, and eviction scans the members for
  // the lowest stamp. With rf_slots threads at most, the scan on the (rare)
  // eviction path is cheaper than keeping a list ordered on the (hot) touch
  // path. Stamps are unique and monotonic, so "lowest stamp among eligible"
  // is exactly the old list's "first eligible from the LRU front".
  std::vector<Ptid> rf_members_;
  struct RfPos {
    uint64_t stamp = 0;
    uint32_t index = 0;  // position in rf_members_ while resident
    bool resident = false;
  };
  std::vector<RfPos> rf_pos_;
  uint64_t use_clock_ = 0;
  RfPos& PosFor(Ptid ptid) {
    if (ptid >= rf_pos_.size()) {
      rf_pos_.resize(ptid + 1);
    }
    return rf_pos_[ptid];
  }
  void AddMember(Ptid ptid) {
    RfPos& pos = PosFor(ptid);
    pos.index = static_cast<uint32_t>(rf_members_.size());
    pos.stamp = ++use_clock_;
    pos.resident = true;
    rf_members_.push_back(ptid);
  }
  void RemoveMember(Ptid ptid) {
    RfPos& pos = rf_pos_[ptid];
    const uint32_t at = pos.index;
    rf_members_[at] = rf_members_.back();
    rf_pos_[rf_members_[at]].index = at;
    rf_members_.pop_back();
    pos.resident = false;
  }
  std::unordered_map<Ptid, HwThread*> threads_;
  uint32_t l2_used_ = 0;
  uint32_t l3_used_ = 0;

  StatsRegistry::CounterHandle stat_restores_rf_;
  StatsRegistry::CounterHandle stat_restores_l2_;
  StatsRegistry::CounterHandle stat_restores_l3_;
  StatsRegistry::CounterHandle stat_restores_dram_;
  StatsRegistry::CounterHandle stat_evictions_;
  StatsRegistry::CounterHandle stat_evicted_bytes_;
  StatsRegistry::HistHandle stat_restore_latency_;
};

}  // namespace casc

#endif  // SRC_HWT_CONTEXT_STORE_H_
