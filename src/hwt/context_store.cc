#include "src/hwt/context_store.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace casc {

namespace {
std::string StatName(CoreId core, const char* suffix) {
  return "hwt.core" + std::to_string(core) + "." + suffix;
}
}  // namespace

ContextStore::ContextStore(Simulation& sim, MemorySystem& mem, const HwtConfig& config,
                           CoreId core)
    : sim_(sim),
      mem_(mem),
      config_(config),
      core_(core),
      stat_restores_rf_(sim.stats().Intern(StatName(core, "restores_rf"))),
      stat_restores_l2_(sim.stats().Intern(StatName(core, "restores_l2"))),
      stat_restores_l3_(sim.stats().Intern(StatName(core, "restores_l3"))),
      stat_restores_dram_(sim.stats().Intern(StatName(core, "restores_dram"))),
      stat_evictions_(sim.stats().Intern(StatName(core, "evictions"))),
      stat_evicted_bytes_(sim.stats().Intern(StatName(core, "evicted_bytes"))),
      stat_restore_latency_(sim.stats().InternHist(StatName(core, "restore_latency"))) {}

void ContextStore::AdmitThread(HwThread& thread) {
  threads_[thread.ptid()] = &thread;
  if (rf_members_.size() < config_.rf_slots) {
    AddMember(thread.ptid());
    thread.set_tier(StorageTier::kRegFile);
  } else {
    thread.set_tier(PickSpillTier());
  }
}

uint32_t ContextStore::TransferBytes(const HwThread& thread) const {
  if (!config_.dirty_register_tracking) {
    return kStateBytes;
  }
  // Control state (pc, mode, edp, tdtr...) always goes with the registers.
  constexpr uint32_t kControlStateBytes = 48;
  const uint32_t regs_bytes = thread.used_reg_count() * 8;
  return std::min(kStateBytes, kControlStateBytes + regs_bytes);
}

Tick ContextStore::RestoreLatency(const HwThread& thread) const {
  // The bulk state transfer overlaps the pipeline refill; the start cost is
  // the slower of the two (§4: ~20 cycles from the RF, 10-50 from L2/L3).
  const Tick refill = kPipelineRestoreCycles;
  switch (thread.tier()) {
    case StorageTier::kRegFile:
      return refill;
    case StorageTier::kL2:
      return std::max(refill, mem_.BulkLatency(MemLevel::kL2, TransferBytes(thread)));
    case StorageTier::kL3:
      return std::max(refill, mem_.BulkLatency(MemLevel::kL3, TransferBytes(thread)));
    case StorageTier::kDram:
      return std::max(refill, mem_.BulkLatency(MemLevel::kDram, TransferBytes(thread)));
  }
  return refill;
}

StorageTier ContextStore::PickSpillTier() {
  if (l2_used_ < config_.l2_slots) {
    l2_used_++;
    return StorageTier::kL2;
  }
  if (l3_used_ < config_.l3_slots) {
    l3_used_++;
    return StorageTier::kL3;
  }
  return StorageTier::kDram;
}

void ContextStore::ReleaseTierSlot(StorageTier tier) {
  switch (tier) {
    case StorageTier::kL2:
      assert(l2_used_ > 0);
      l2_used_--;
      break;
    case StorageTier::kL3:
      assert(l3_used_ > 0);
      l3_used_--;
      break;
    default:
      break;
  }
}

void ContextStore::AcquireTierSlot(StorageTier tier) {
  switch (tier) {
    case StorageTier::kL2:
      l2_used_++;
      break;
    case StorageTier::kL3:
      l3_used_++;
      break;
    default:
      break;
  }
  AssertSlotAccounting();
}

void ContextStore::AssertSlotAccounting() const {
  // Slot bookkeeping must never claim more occupancy than the hardware has;
  // over-count here means a tier was double-acquired (or released twice) and
  // every later spill decision is wrong.
  assert(l2_used_ <= config_.l2_slots);
  assert(l3_used_ <= config_.l3_slots);
}

bool ContextStore::EvictOne(Ptid except) {
  // Lowest stamp among eligible members = the least recently used eligible
  // thread (stamps are unique and monotonic, so this matches the old LRU
  // list's first-eligible-from-the-front exactly).
  HwThread* victim = nullptr;
  uint64_t best = 0;
  for (const Ptid ptid : rf_members_) {
    HwThread* t = threads_.at(ptid);
    if (t->ptid() == except || t->pinned() || t->state() == ThreadState::kRunnable) {
      continue;
    }
    const uint64_t stamp = rf_pos_[ptid].stamp;
    if (victim == nullptr || stamp < best) {
      victim = t;
      best = stamp;
    }
  }
  if (victim == nullptr) {
    return false;
  }
  // Write-back happens in the background over the wide links; count it
  // but do not charge the waker.
  stat_evictions_++;
  stat_evicted_bytes_ += TransferBytes(*victim);
  victim->set_tier(PickSpillTier());
  victim->ResetUsedRegs();
  RemoveMember(victim->ptid());
  return true;
}

Tick ContextStore::EnsureResident(HwThread& thread) {
  const Tick latency = RestoreLatency(thread);
  stat_restore_latency_.Record(latency);
  switch (thread.tier()) {
    case StorageTier::kRegFile:
      stat_restores_rf_++;
      Touch(thread);
      return latency;
    case StorageTier::kL2:
      stat_restores_l2_++;
      break;
    case StorageTier::kL3:
      stat_restores_l3_++;
      break;
    case StorageTier::kDram:
      stat_restores_dram_++;
      break;
  }
  // Promote into the register file. Release the waking thread's tier slot
  // *before* choosing the victim's spill tier: the slot being vacated is
  // exactly the one the victim should be allowed to take, otherwise victims
  // spill one level lower than necessary (e.g. to DRAM while an L2 slot is
  // about to free).
  ReleaseTierSlot(thread.tier());
  if (rf_members_.size() >= config_.rf_slots) {
    if (!EvictOne(thread.ptid())) {
      // Everything is pinned or running; execute from the lower tier and pay
      // its latency each wake (degenerate but safe). The thread keeps its
      // slot, so take the release back.
      AcquireTierSlot(thread.tier());
      return latency;
    }
  }
  thread.set_tier(StorageTier::kRegFile);
  AddMember(thread.ptid());
  AssertSlotAccounting();
  return latency;
}

void ContextStore::ForceTier(HwThread& thread, StorageTier tier) {
  RfPos& pos = PosFor(thread.ptid());
  if (pos.resident) {
    RemoveMember(thread.ptid());
  } else {
    ReleaseTierSlot(thread.tier());
  }
  switch (tier) {
    case StorageTier::kRegFile:
      AddMember(thread.ptid());
      break;
    case StorageTier::kL2:
      l2_used_++;
      break;
    case StorageTier::kL3:
      l3_used_++;
      break;
    case StorageTier::kDram:
      break;
  }
  thread.set_tier(tier);
}

}  // namespace casc
