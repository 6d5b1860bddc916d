// Timing-only set-associative cache model with true-LRU replacement and
// write-back/write-allocate policy. Holds tags only; data lives in
// PhysicalMemory (the classic decoupled functional/timing split).
#ifndef SRC_MEM_CACHE_H_
#define SRC_MEM_CACHE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/types.h"

namespace casc {

struct CacheConfig {
  std::string name = "cache";
  uint64_t size_bytes = 32 * 1024;
  uint32_t ways = 8;
  Tick hit_latency = 4;
};

class Cache {
 public:
  // A group of caches (one core's L1I, L1D and L2) may share a presence
  // filter: kPresenceSlots counters, slot PresenceSlot(line) * stride of
  // `presence`, each equal to the number of valid lines of the group that
  // hash to that slot. A write only probes the caches of a group whose slot
  // is nonzero (MemorySystem::InvalidateForWrite). Every fill, eviction and
  // invalidation keeps the counts exact; nullptr (the default) keeps none.
  static constexpr size_t kPresenceSlots = size_t{1} << 16;
  static size_t PresenceSlot(Addr addr) {
    return static_cast<size_t>(((addr / kLineSize) * 0x9E3779B97F4A7C15ull) >> 48);
  }

  explicit Cache(const CacheConfig& config, uint16_t* presence = nullptr,
                 size_t presence_stride = 1);

  // A memoized hit: a pointer to the LRU stamp of the line that served a
  // previous read access, validated against the cache's structural epoch.
  // The epoch advances on any fill, invalidation, or pin change, so a stale
  // ref can never replay — the fetch path (Core's predecoded lines) uses
  // this to skip the set walk on the common all-hits stretch while keeping
  // hit counts and LRU state exactly as the full walk would leave them.
  struct LineRef {
    uint64_t* lru = nullptr;
    uint64_t epoch = 0;
  };

  // Tag lookup with fill-on-miss. Returns true on hit. On miss the line is
  // installed; `evicted_dirty` (if non-null) reports whether a dirty victim
  // was written back.
  //
  // The hit path lives in the header so the per-instruction fetch chain
  // (Core -> MemorySystem -> Cache) inlines end to end; misses take the
  // out-of-line Fill.
  bool Access(Addr addr, bool is_write, bool* evicted_dirty = nullptr) {
    if (evicted_dirty != nullptr) {
      *evicted_dirty = false;
    }
    const size_t base = SetBase(addr);
    const Addr tag = TagOf(addr);
    const bool fill_pinned = !pinned_ranges_.empty() && IsPinnedAddr(addr);
    for (size_t i = base; i < base + config_.ways; i++) {
      if (tags_[i] == tag) {
        lru_[i] = ++lru_clock_;
        flags_[i] |= (is_write ? kDirty : 0) | (fill_pinned ? kPinned : 0);
        hits_++;
        return true;
      }
    }
    return Fill(base, addr, is_write, fill_pinned, evicted_dirty);
  }

  // Replays a memoized read hit: true iff `ref` still points at a line the
  // cache has not restructured since capture. Performs the same bookkeeping
  // as the Access hit path for a clean read (LRU bump + hit count). Refuses
  // to replay while pin ranges are installed: the full walk would also
  // refresh the line's pinned bit, and that nuance is not worth memoizing.
  bool FastHit(const LineRef& ref) {
    if (ref.epoch != epoch_ || !pinned_ranges_.empty()) {
      return false;
    }
    *ref.lru = ++lru_clock_;
    hits_++;
    return true;
  }

  // Captures a ref for `addr` after a hit so the next access can FastHit.
  // No-op (invalid ref) if the line is not actually present.
  void CaptureRef(Addr addr, LineRef* ref) {
    const size_t way = Find(addr);
    if (way == kNoWay) {
      ref->epoch = 0;
      return;
    }
    ref->lru = &lru_[way];
    ref->epoch = epoch_;
  }

  // Lookup without side effects.
  bool Probe(Addr addr) const { return Find(addr) != kNoWay; }

  // Drops the line if present; returns true if it was present and dirty.
  bool Invalidate(Addr addr);

  void InvalidateAll();

  // Calls fn(line address) for every valid line (tests recount the
  // presence filter with it).
  template <typename Fn>
  void ForEachLine(Fn fn) const {
    for (size_t i = 0; i < tags_.size(); i++) {
      if (tags_[i] != kInvalidTag) {
        fn(LineAddr(tags_[i], i / config_.ways));
      }
    }
  }

  // §4: "pin the most critical instructions/data/translations ... in caches,
  // using fine-grain cache partitioning". Lines within a pinned range are
  // never chosen as victims by fills of unpinned addresses; if a set fills
  // up entirely with pinned lines, unpinned fills bypass the cache (counted).
  void PinRange(Addr base, uint64_t size);
  void ClearPins() { pinned_ranges_.clear(); }
  bool IsPinnedAddr(Addr addr) const;
  uint64_t bypasses() const { return bypasses_; }

  const CacheConfig& config() const { return config_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t writebacks() const { return writebacks_; }

  // Capacity in lines (for tier-sizing by the context store).
  uint64_t num_lines() const { return static_cast<uint64_t>(num_sets_) * config_.ways; }

 private:
  // An invalid way holds a tag no address maps to: tags are line numbers
  // shifted or divided by the set count, so they never reach 2^58.
  static constexpr Addr kInvalidTag = ~Addr{0};
  static constexpr size_t kNoWay = ~size_t{0};
  static constexpr uint8_t kDirty = 1;
  static constexpr uint8_t kPinned = 2;

  // Set count is a power of two for every stock config; the masked path keeps
  // two 64-bit divisions off the per-access critical path. Results are
  // identical to the div/mod form either way.
  Addr SetOf(Addr addr) const {
    const Addr line = addr / kLineSize;
    return set_shift_ >= 0 ? (line & (num_sets_ - 1)) : (line % num_sets_);
  }
  size_t SetBase(Addr addr) const { return static_cast<size_t>(SetOf(addr)) * config_.ways; }
  Addr TagOf(Addr addr) const {
    const Addr line = addr / kLineSize;
    return set_shift_ >= 0 ? (line >> set_shift_) : (line / num_sets_);
  }
  // Address of the line with `tag` in `set`.
  Addr LineAddr(Addr tag, Addr set) const {
    return (set_shift_ >= 0 ? (tag << set_shift_ | set) : tag * num_sets_ + set) * kLineSize;
  }
  size_t Find(Addr addr) const {
    const size_t base = SetBase(addr);
    const Addr tag = TagOf(addr);
    for (size_t i = base; i < base + config_.ways; i++) {
      if (tags_[i] == tag) {
        return i;
      }
    }
    return kNoWay;
  }
  uint16_t& PresenceOf(Addr line) { return presence_[PresenceSlot(line) * presence_stride_]; }

  // Miss path: victim selection + install. Returns false (miss).
  bool Fill(size_t base, Addr addr, bool is_write, bool fill_pinned, bool* evicted_dirty);

  CacheConfig config_;
  uint32_t num_sets_;
  int set_shift_ = -1;  // log2(num_sets_) when a power of two, else -1
  // Per way, num_sets_ * ways, set-major.
  std::vector<Addr> tags_;       // kInvalidTag: invalid way
  std::vector<uint64_t> lru_;    // higher = more recently used
  std::vector<uint8_t> flags_;   // kDirty | kPinned
  uint16_t* presence_;
  size_t presence_stride_;
  std::vector<std::pair<Addr, Addr>> pinned_ranges_;  // [base, end)
  // Structural epoch for LineRef validation; starts at 1 so a default
  // (zeroed) ref never replays.
  uint64_t epoch_ = 1;
  uint64_t lru_clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t writebacks_ = 0;
  uint64_t bypasses_ = 0;
};

}  // namespace casc

#endif  // SRC_MEM_CACHE_H_
