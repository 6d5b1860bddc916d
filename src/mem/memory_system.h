// The machine's memory front-end: per-core L1I/L1D/L2 stacks, a shared L3,
// DRAM, MMIO regions, a DMA port for devices, and the generalized monitor
// filter. Every write — CPU store, MMIO doorbell, or DMA — funnels through
// here, which is what makes the paper's "monitor any write by any source"
// semantics implementable.
#ifndef SRC_MEM_MEMORY_SYSTEM_H_
#define SRC_MEM_MEMORY_SYSTEM_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/mem/cache.h"
#include "src/mem/monitor_filter.h"
#include "src/mem/phys_mem.h"
#include "src/sim/simulation.h"
#include "src/sim/types.h"

namespace casc {

// Memory hierarchy levels, used for bulk context-state transfers (§4).
enum class MemLevel : uint8_t { kL1 = 0, kL2 = 1, kL3 = 2, kDram = 3 };

// Access latencies past the caches (typical server parts).
inline constexpr Tick kDramLatency = 200;
inline constexpr Tick kMmioLatency = 40;

struct MemConfig {
  CacheConfig l1i{"l1i", 32 * 1024, 8, 4};
  CacheConfig l1d{"l1d", 32 * 1024, 8, 4};
  CacheConfig l2{"l2", 512 * 1024, 8, 14};
  CacheConfig l3{"l3", 8 * 1024 * 1024, 16, 42};
  MonitorFilterConfig monitor;
};

// Devices expose register windows through this interface.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual uint64_t MmioRead(Addr offset, size_t len) = 0;
  virtual void MmioWrite(Addr offset, size_t len, uint64_t value) = 0;
};

class MemorySystem {
 public:
  MemorySystem(Simulation& sim, const MemConfig& config, uint32_t num_cores);

  PhysicalMemory& phys() { return phys_; }
  MonitorFilter& monitors() { return monitors_; }
  const MemConfig& config() const { return config_; }
  uint32_t num_cores() const { return static_cast<uint32_t>(core_caches_.size()); }

  // --- CPU-side timed + functional accesses ------------------------------
  // Each returns the access latency in cycles and performs the functional
  // read/write (including MMIO dispatch and monitor notification).
  Tick Read(CoreId core, Addr addr, size_t len, uint64_t* out);
  Tick Write(CoreId core, Addr addr, size_t len, uint64_t value);
  // Defined inline: the fetch path runs once per simulated instruction and
  // must inline into the core's step loop together with Cache::Access.
  Tick Fetch(CoreId core, Addr addr, uint32_t* inst) {
    stat_fetches_++;
    if (inst != nullptr) {
      *inst = phys_.Read32(addr);
    }
    return AccessLatency(core, addr, /*is_write=*/false, /*is_fetch=*/true);
  }
  // Fetch for a predecoded line (no functional read): identical stats and
  // latency to Fetch(core, addr, nullptr), but replays the common L1I hit
  // through the epoch-validated memo captured in `ref` (one compare + LRU
  // bump instead of the set walk). On a miss — or whenever the memo is stale —
  // it takes the full AccessLatency walk and re-captures on an L1 hit.
  // The miss tail lives out of line (FetchPredecodedMiss) so this wrapper is
  // small enough to inline into Core::StepInterpreted — on the all-hits
  // stretch the whole fetch is the memo compare plus the LRU bump, with no
  // call at all.
  Tick FetchPredecoded(CoreId core, Addr addr, Cache::LineRef* ref) {
    stat_fetches_++;
    Cache& l1i = *core_caches_[core].l1i;
    if (l1i.FastHit(*ref)) {
      return l1i.config().hit_latency;
    }
    return FetchPredecodedMiss(core, addr, ref);
  }

  // Atomic fetch-add (8 bytes): returns the old value via `old`. Charged as
  // a write plus a small RMW penalty; visible to the monitor filter.
  Tick AtomicAdd(CoreId core, Addr addr, uint64_t delta, uint64_t* old);

  // Atomic compare-and-swap (8 bytes): if mem[addr] == expected, stores
  // `desired`. Returns the old value via `old` (success iff *old == expected).
  // A successful swap is a write (monitor-visible); a failed one still pays
  // the RMW line access but changes nothing and wakes nobody.
  Tick AtomicCas(CoreId core, Addr addr, uint64_t expected, uint64_t desired, uint64_t* old);

  // Timing-only probe used by bulk movers; does not touch functional state.
  Tick AccessLatency(CoreId core, Addr addr, bool is_write, bool is_fetch) {
    assert(core < core_caches_.size());
    CoreCaches& cc = core_caches_[core];
    Cache& l1 = is_fetch ? *cc.l1i : *cc.l1d;
    Tick lat = l1.config().hit_latency;
    if (l1.Access(addr, is_write)) {
      return lat;
    }
    lat += cc.l2->config().hit_latency;
    if (cc.l2->Access(addr, is_write)) {
      return lat;
    }
    lat += l3_->config().hit_latency;
    if (l3_->Access(addr, is_write)) {
      return lat;
    }
    return lat + kDramLatency;
  }

  // --- Device-side (DMA) accesses ----------------------------------------
  // Functional effect + cache invalidation + monitor notification. DMA does
  // not consume CPU cycles (it rides the I/O fabric).
  void DmaWrite(Addr addr, const void* data, size_t len);
  void DmaRead(Addr addr, void* out, size_t len);
  void DmaWrite64(Addr addr, uint64_t value) { DmaWrite(addr, &value, 8); }

  // --- MMIO ---------------------------------------------------------------
  void RegisterMmio(Addr base, uint64_t size, MmioDevice* device);

  // --- Protection ----------------------------------------------------------
  // Minimal memory protection (stands in for paging): user-mode accesses to
  // a supervisor-only range raise the §3 page-fault exception — a descriptor
  // write plus thread disable, never a trap. Checked by the cores.
  void AddSupervisorOnlyRange(Addr base, uint64_t size) {
    supervisor_only_.push_back({base, base + size});
  }
  bool IsSupervisorOnly(Addr addr) const {
    for (const auto& [lo, hi] : supervisor_only_) {
      if (addr >= lo && addr < hi) {
        return true;
      }
    }
    return false;
  }

  // Ranges that reject device-side (DMA) writes — an unmapped I/O hole or a
  // read-only page as seen from the fabric. A DMA write overlapping one is
  // dropped whole (counted in mem.dma_blocked); the exception hardware uses
  // DmaWriteAllowed to detect that a descriptor write would land here and
  // escalate the fault up the handler chain instead (§3). CPU stores are not
  // affected: their protection path is the supervisor-only check above.
  void AddUnwritableRange(Addr base, uint64_t size) {
    unwritable_.push_back({base, base + size});
  }
  void RemoveUnwritableRange(Addr base, uint64_t size) {
    std::erase(unwritable_, std::pair<Addr, Addr>{base, base + size});
  }
  bool DmaWriteAllowed(Addr addr, size_t len) const {
    if (unwritable_.empty()) {
      return true;
    }
    Addr last = addr + (len == 0 ? 0 : len - 1);
    if (last < addr) {
      last = ~UINT64_C(0);  // clamp address-space wrap
    }
    for (const auto& [lo, hi] : unwritable_) {
      if (addr < hi && last >= lo) {
        return false;
      }
    }
    return true;
  }

  // --- Bulk transfers (context-state moves, §4) ---------------------------
  // Latency to move `bytes` of contiguous state to/from the given level:
  // level base latency + ceil(bytes / link width).
  Tick BulkLatency(MemLevel level, uint32_t bytes) const;

  // §4 criticality pinning: protect `size` bytes at `base` from eviction in
  // `core`'s private caches (fine-grain partitioning).
  void PinRange(CoreId core, Addr base, uint64_t size) {
    core_caches_[core].l1d->PinRange(base, size);
    core_caches_[core].l2->PinRange(base, size);
  }

  // --- Code-write notification --------------------------------------------
  // Called once per written line for every memory-backed write (CPU store,
  // atomic, or DMA — not MMIO, which is never fetched). A core registers
  // here when it predecodes its first code line, to invalidate predecoded
  // instructions; every registered listener hears every written line, the
  // writer's own core included, and a core that never interprets code
  // registers none. Writes that bypass the memory system (PhysicalMemory
  // loads at program-load time) must invalidate explicitly.
  using CodeWriteListener = std::function<void(Addr line)>;
  void AddCodeWriteListener(CodeWriteListener fn) {
    code_write_listeners_.push_back(std::move(fn));
  }

  // Per-core cache access (tests, warmup helpers), and the count of
  // `core`'s presence filter at a Cache::PresenceSlot.
  uint16_t presence(CoreId core, size_t slot) const {
    return presence_[slot * core_caches_.size() + core];
  }
  Cache& l1d(CoreId core) { return *core_caches_[core].l1d; }
  Cache& l1i(CoreId core) { return *core_caches_[core].l1i; }
  Cache& l2(CoreId core) { return *core_caches_[core].l2; }
  Cache& l3() { return *l3_; }

 private:
  // Cold half of FetchPredecoded: the full latency walk plus memo re-capture.
  Tick FetchPredecodedMiss(CoreId core, Addr addr, Cache::LineRef* ref);

  struct CoreCaches {
    std::unique_ptr<Cache> l1i;
    std::unique_ptr<Cache> l1d;
    std::unique_ptr<Cache> l2;
  };
  struct MmioRegion {
    Addr base;
    uint64_t size;
    MmioDevice* device;
  };
  const MmioRegion* FindMmio(Addr addr) const;
  // Drops the written lines from every core's private caches except the
  // writer's, and tells the code-write listeners. DMA passes kNoWriter: no
  // core's copy survives. Only cores whose presence count for the line is
  // nonzero are probed.
  static constexpr CoreId kNoWriter = ~CoreId{0};
  void InvalidateForWrite(Addr addr, size_t len, CoreId writer);

  MemConfig config_;
  PhysicalMemory phys_;
  MonitorFilter monitors_;
  std::vector<CoreCaches> core_caches_;
  // Each core's presence filter over its L1I, L1D and L2 (Cache::PresenceSlot),
  // slot-major: the counts of every core for one slot are adjacent.
  std::vector<uint16_t> presence_;
  std::unique_ptr<Cache> l3_;
  std::vector<MmioRegion> mmio_;
  std::vector<CodeWriteListener> code_write_listeners_;
  std::vector<std::pair<Addr, Addr>> supervisor_only_;  // [base, end)
  std::vector<std::pair<Addr, Addr>> unwritable_;       // [base, end), DMA-side
  StatsRegistry::CounterHandle stat_reads_;
  StatsRegistry::CounterHandle stat_writes_;
  StatsRegistry::CounterHandle stat_fetches_;
  StatsRegistry::CounterHandle stat_dma_writes_;
  StatsRegistry::CounterHandle stat_dma_blocked_;
};

}  // namespace casc

#endif  // SRC_MEM_MEMORY_SYSTEM_H_
