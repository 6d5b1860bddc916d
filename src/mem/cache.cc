#include "src/mem/cache.h"

#include <cassert>

namespace casc {

Cache::Cache(const CacheConfig& config, uint16_t* presence, size_t presence_stride)
    : config_(config), presence_(presence), presence_stride_(presence_stride) {
  assert(config_.ways > 0);
  const uint64_t lines = config_.size_bytes / kLineSize;
  assert(lines >= config_.ways);
  num_sets_ = static_cast<uint32_t>(lines / config_.ways);
  assert(num_sets_ > 0);
  if (std::has_single_bit(num_sets_)) {
    set_shift_ = std::countr_zero(num_sets_);
  }
  const size_t ways = static_cast<size_t>(num_sets_) * config_.ways;
  tags_.assign(ways, kInvalidTag);
  lru_.assign(ways, 0);
  flags_.assign(ways, 0);
}

void Cache::PinRange(Addr base, uint64_t size) {
  pinned_ranges_.push_back({base, base + size});
  epoch_++;
}

bool Cache::IsPinnedAddr(Addr addr) const {
  for (const auto& [lo, hi] : pinned_ranges_) {
    if (addr >= lo && addr < hi) {
      return true;
    }
  }
  return false;
}

bool Cache::Fill(size_t base, Addr addr, bool is_write, bool fill_pinned, bool* evicted_dirty) {
  misses_++;
  epoch_++;  // any fill may evict a memoized line
  // Victim: an invalid way if any, else the LRU among eligible ways. Pinned
  // lines are only evictable by pinned fills (the partition guarantee).
  size_t victim = kNoWay;
  for (size_t i = base; i < base + config_.ways; i++) {
    if (tags_[i] == kInvalidTag) {
      victim = i;
      break;
    }
    if ((flags_[i] & kPinned) != 0 && !fill_pinned) {
      continue;
    }
    if (victim == kNoWay || lru_[i] < lru_[victim]) {
      victim = i;
    }
  }
  if (victim == kNoWay) {
    // The whole set is pinned against this fill: bypass the cache.
    bypasses_++;
    return false;
  }
  if (tags_[victim] != kInvalidTag) {
    if ((flags_[victim] & kDirty) != 0) {
      writebacks_++;
      if (evicted_dirty != nullptr) {
        *evicted_dirty = true;
      }
    }
    if (presence_ != nullptr) {
      PresenceOf(LineAddr(tags_[victim], SetOf(addr)))--;  // the victim shares addr's set
    }
  }
  if (presence_ != nullptr) {
    PresenceOf(addr)++;
  }
  tags_[victim] = TagOf(addr);
  flags_[victim] = (is_write ? kDirty : 0) | (fill_pinned ? kPinned : 0);
  lru_[victim] = ++lru_clock_;
  return false;
}

bool Cache::Invalidate(Addr addr) {
  const size_t way = Find(addr);
  if (way == kNoWay) {
    return false;
  }
  const bool was_dirty = (flags_[way] & kDirty) != 0;
  tags_[way] = kInvalidTag;
  flags_[way] = 0;
  if (presence_ != nullptr) {
    PresenceOf(addr)--;
  }
  epoch_++;
  return was_dirty;
}

void Cache::InvalidateAll() {
  for (size_t i = 0; i < tags_.size(); i++) {
    if (presence_ != nullptr && tags_[i] != kInvalidTag) {
      PresenceOf(LineAddr(tags_[i], i / config_.ways))--;
    }
    tags_[i] = kInvalidTag;
    flags_[i] = 0;
  }
  epoch_++;
}

}  // namespace casc
