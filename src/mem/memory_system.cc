#include "src/mem/memory_system.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace casc {

namespace {
// Last line touched by a write of `len` bytes at `addr`, clamped to the top
// of the address space: `addr + len - 1` may wrap, and a `line <= last` loop
// would never terminate once `line + kLineSize` wraps past the final line.
// Same idiom as MonitorFilter::OnWrite (found by casc_fuzz; callers iterate
// with an equality exit).
Addr LastLineClamped(Addr addr, size_t len) {
  const Addr max_addr = std::numeric_limits<Addr>::max();
  const uint64_t span = len > 0 ? len - 1 : 0;
  const Addr last_byte = span > max_addr - addr ? max_addr : addr + span;
  return LineBase(last_byte);
}
}  // namespace

MemorySystem::MemorySystem(Simulation& sim, const MemConfig& config, uint32_t num_cores)
    : config_(config),
      monitors_(config.monitor, sim.stats()),
      stat_reads_(sim.stats().Intern("mem.reads")),
      stat_writes_(sim.stats().Intern("mem.writes")),
      stat_fetches_(sim.stats().Intern("mem.fetches")),
      stat_dma_writes_(sim.stats().Intern("mem.dma_writes")),
      stat_dma_blocked_(sim.stats().Intern("mem.dma_blocked")) {
  // A presence slot counts at most every private line of one core.
  const uint64_t private_lines =
      (config_.l1i.size_bytes + config_.l1d.size_bytes + config_.l2.size_bytes) / kLineSize;
  if (private_lines > std::numeric_limits<uint16_t>::max()) {
    std::fprintf(stderr, "private caches of %llu lines overflow the presence filter\n",
                 static_cast<unsigned long long>(private_lines));
    std::abort();
  }
  presence_.assign(Cache::kPresenceSlots * num_cores, 0);
  core_caches_.reserve(num_cores);
  for (uint32_t i = 0; i < num_cores; i++) {
    CoreCaches cc;
    uint16_t* presence = presence_.data() + i;
    cc.l1i = std::make_unique<Cache>(config_.l1i, presence, num_cores);
    cc.l1d = std::make_unique<Cache>(config_.l1d, presence, num_cores);
    cc.l2 = std::make_unique<Cache>(config_.l2, presence, num_cores);
    core_caches_.push_back(std::move(cc));
  }
  l3_ = std::make_unique<Cache>(config_.l3);
}

const MemorySystem::MmioRegion* MemorySystem::FindMmio(Addr addr) const {
  for (const MmioRegion& r : mmio_) {
    if (addr >= r.base && addr < r.base + r.size) {
      return &r;
    }
  }
  return nullptr;
}

void MemorySystem::RegisterMmio(Addr base, uint64_t size, MmioDevice* device) {
  assert(device != nullptr);
  assert(FindMmio(base) == nullptr && FindMmio(base + size - 1) == nullptr);
  mmio_.push_back(MmioRegion{base, size, device});
}

void MemorySystem::InvalidateForWrite(Addr addr, size_t len, CoreId writer) {
  const Addr last = LastLineClamped(addr, len);
  const uint32_t cores = num_cores();
  for (Addr line = LineBase(addr);; line += kLineSize) {
    // A zero presence count means none of the core's caches holds the line,
    // so its three probes would all miss.
    const uint16_t* presence = &presence_[Cache::PresenceSlot(line) * cores];
    for (uint32_t c = 0; c < cores; c++) {
      if (c == writer || presence[c] == 0) {
        continue;
      }
      core_caches_[c].l1i->Invalidate(line);
      core_caches_[c].l1d->Invalidate(line);
      core_caches_[c].l2->Invalidate(line);
    }
    // Unlike the cache invalidation above, predecode invalidation includes
    // the writer: its own predecoded copy of the line is stale too.
    for (const CodeWriteListener& listener : code_write_listeners_) {
      listener(line);
    }
    if (line == last) {
      break;
    }
  }
}

Tick MemorySystem::FetchPredecodedMiss(CoreId core, Addr addr, Cache::LineRef* ref) {
  Cache& l1i = *core_caches_[core].l1i;
  const Tick hit = l1i.config().hit_latency;
  const Tick lat = AccessLatency(core, addr, /*is_write=*/false, /*is_fetch=*/true);
  if (lat == hit) {
    l1i.CaptureRef(addr, ref);
  }
  return lat;
}

Tick MemorySystem::Read(CoreId core, Addr addr, size_t len, uint64_t* out) {
  stat_reads_++;
  const MmioRegion* mmio = FindMmio(addr);
  if (mmio != nullptr) {
    const uint64_t v = mmio->device->MmioRead(addr - mmio->base, len);
    if (out != nullptr) {
      *out = v;
    }
    return kMmioLatency;
  }
  if (out != nullptr) {
    *out = phys_.ReadUint(addr, len);
  }
  return AccessLatency(core, addr, /*is_write=*/false, /*is_fetch=*/false);
}

Tick MemorySystem::Write(CoreId core, Addr addr, size_t len, uint64_t value) {
  stat_writes_++;
  const MmioRegion* mmio = FindMmio(addr);
  if (mmio != nullptr) {
    mmio->device->MmioWrite(addr - mmio->base, len, value);
    // MMIO registers are monitorable too (§3.1: "one can monitor uncachable
    // addresses such as device memory or memory-mapped I/O registers").
    monitors().OnWrite(addr, len);
    return kMmioLatency;
  }
  phys_.WriteUint(addr, value, len);
  InvalidateForWrite(addr, len, core);
  monitors().OnWrite(addr, len);
  return AccessLatency(core, addr, /*is_write=*/true, /*is_fetch=*/false);
}

Tick MemorySystem::AtomicAdd(CoreId core, Addr addr, uint64_t delta, uint64_t* old) {
  const uint64_t prev = phys_.Read64(addr);
  if (old != nullptr) {
    *old = prev;
  }
  const Tick lat = Write(core, addr, 8, prev + delta);
  return lat + 4;  // lock/RMW penalty
}

Tick MemorySystem::AtomicCas(CoreId core, Addr addr, uint64_t expected, uint64_t desired,
                             uint64_t* old) {
  const uint64_t prev = phys_.Read64(addr);
  if (old != nullptr) {
    *old = prev;
  }
  if (prev != expected) {
    // Failed CAS: the line is still acquired exclusively (charged like a
    // write), but there is no functional update and no monitor notification.
    return AccessLatency(core, addr, /*is_write=*/true, /*is_fetch=*/false) + 4;
  }
  return Write(core, addr, 8, desired) + 4;  // lock/RMW penalty
}

void MemorySystem::DmaWrite(Addr addr, const void* data, size_t len) {
  if (!DmaWriteAllowed(addr, len)) {
    // The fabric rejects the write whole: no functional update, no
    // invalidation, no monitor wakeups. Devices observe nothing (real DMA
    // engines post writes and move on); the exception path checks
    // DmaWriteAllowed up front precisely because this failure is silent.
    stat_dma_blocked_++;
    return;
  }
  stat_dma_writes_++;
  phys_.Write(addr, data, len);
  // DMA comes from no core, so every core's private lines go; then it
  // allocates into the shared L3 (DDIO-style) so the woken consumer hits
  // on-chip.
  InvalidateForWrite(addr, len, kNoWriter);
  const Addr last = LastLineClamped(addr, len);
  for (Addr line = LineBase(addr);; line += kLineSize) {
    l3_->Access(line, /*is_write=*/true);
    if (line == last) {
      break;
    }
  }
  monitors().OnWrite(addr, len);
}

void MemorySystem::DmaRead(Addr addr, void* out, size_t len) { phys_.Read(addr, out, len); }

Tick MemorySystem::BulkLatency(MemLevel level, uint32_t bytes) const {
  constexpr uint32_t kLinkBytesPerCycle = 32;  // §4: "32-byte or wider" links
  const Tick transfer = (bytes + kLinkBytesPerCycle - 1) / kLinkBytesPerCycle;
  switch (level) {
    case MemLevel::kL1:
      return config_.l1d.hit_latency + transfer;
    case MemLevel::kL2:
      return config_.l2.hit_latency + transfer;
    case MemLevel::kL3:
      return config_.l3.hit_latency + transfer;
    case MemLevel::kDram:
      return kDramLatency + transfer;
  }
  return kDramLatency + transfer;
}

}  // namespace casc
