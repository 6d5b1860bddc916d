// The OS scheduler's new role (§4): "With a large number of hardware
// threads, the scheduler will rarely need to swap a software thread in and
// out of a hardware thread. This operation should become as uncommon as
// swapping memory pages to disk. The OS scheduler will enforce software
// policies by starting and stopping hardware threads and setting their
// priorities. It will also manage the mapping of threads to cores in order
// to improve locality."
//
// KernelScheduler is that scheduler: one hardware thread that wakes on the
// APIC timer counter, places newly submitted software threads onto free
// hardware threads (rpush of pc/args + start), applies priority policy, and
// load-balances by migrating whole register images between cores with
// rpull/rpush — paying the real per-register instruction costs.
#ifndef SRC_RUNTIME_KSCHEDULER_H_
#define SRC_RUNTIME_KSCHEDULER_H_

#include <deque>
#include <vector>

#include "src/cpu/machine.h"
#include "src/runtime/ring.h"

namespace casc {

// Ring request number understood by KernelScheduler::SpawnHandler.
inline constexpr uint64_t kSchedSpawn = 1;
// Completion value returned when a spawn is refused because the handler ran
// on the wrong core (see SpawnHandler); never a valid soft-thread id.
inline constexpr uint64_t kSchedSpawnRefused = ~uint64_t{0};

inline constexpr Addr kSchedTimerCounter = 0x00700000;  // APIC timer increments this line
inline constexpr Addr kSchedSubmitDoorbell = 0x00700040;
// Imbalance threshold: migrate when (max - min) runnable per pool exceeds it.
inline constexpr uint32_t kSchedBalanceThreshold = 2;

class KernelScheduler {
 public:
  KernelScheduler(Machine& machine, CoreId core, uint32_t local_slot);

  // Declares `count` hardware threads starting at `first_local` on `core` as
  // a worker pool the scheduler may place software threads onto.
  void AddWorkerPool(CoreId core, uint32_t first_local, uint32_t count);

  // Queues a software thread (entry pc + initial a0/a1) for placement and
  // rings the scheduler's doorbell. Host-side API standing in for a spawn
  // syscall. Returns a software-thread id.
  uint64_t Submit(Addr pc, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t prio = 1);

  // Guest-side spawn over the shared ring transport: install the returned
  // handler in a RingServer on the scheduler's core and ptids can submit
  // kSchedSpawn descriptors (a0 = pc, a1 = arg, a2 = prio; completion = soft
  // id) — the ring worker queues the spawn and rings the scheduler doorbell,
  // replacing the host-side Submit hop with an in-machine protocol. The
  // on-core rule is part of the API: a handler executing on any other core
  // refuses the spawn and completes with kSchedSpawnRefused.
  SyscallHandler SpawnHandler();

  // Binds and starts the scheduler hardware thread.
  void Install();

  Ptid sched_ptid() const { return sched_ptid_; }
  uint64_t placements() const { return placements_.get(); }
  uint64_t migrations() const { return migrations_.get(); }
  // Which hardware thread a software thread currently occupies.
  Ptid LocationOf(uint64_t soft_id) const;

 private:
  struct Pool {
    CoreId core;
    std::vector<Ptid> slots;
  };
  struct SoftThreadInfo {
    uint64_t id;
    Addr pc;
    uint64_t a0;
    uint64_t a1;
    uint64_t prio;
    Ptid location = kInvalidPtid;  // kInvalid = not placed yet
  };

  GuestTask Run(GuestContext& ctx);
  GuestTask Place(GuestContext& ctx, SoftThreadInfo* st, Ptid slot);
  GuestTask Migrate(GuestContext& ctx, SoftThreadInfo* st, Ptid to);
  // Free slot in the pool with the fewest occupied slots; kInvalidPtid if none.
  Ptid FindFreeSlot();
  int PoolIndexOf(Ptid ptid) const;

  Machine& machine_;
  CoreId core_;
  uint32_t local_slot_;
  Ptid sched_ptid_ = kInvalidPtid;
  std::vector<Pool> pools_;
  // Deque, not vector: Place/Migrate hold SoftThreadInfo pointers across
  // awaits, and a ring-submitted spawn may push_back mid-placement.
  std::deque<SoftThreadInfo> softs_;
  std::deque<uint64_t> pending_;  // soft ids awaiting placement
  uint64_t doorbell_seq_ = 0;
  StatsRegistry::CounterHandle placements_;
  StatsRegistry::CounterHandle migrations_;
};

}  // namespace casc

#endif  // SRC_RUNTIME_KSCHEDULER_H_
