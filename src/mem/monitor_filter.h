// The generalized monitor/mwait filter proposed in §3.1/§4 of the paper.
//
// Unlike x86 MONITOR/MWAIT, this unit observes *every* write entering the
// memory system — CPU stores from any privilege level, DMA from devices, and
// device-internal updates such as the APIC timer counter or MSI-X translated
// interrupts — and it may watch uncacheable (MMIO) addresses. A hardware
// thread can watch multiple cache lines at once.
//
// Semantics implemented (documented in DESIGN.md):
//  * `AddWatch` arms a line for a ptid. Watches persist across wakeups until
//    `ClearWatches` re-arms a new set (matching "monitor multiple locations").
//  * A write to a watched line sets the ptid's pending flag; if the ptid is
//    currently mwait-blocked the wake handler fires exactly once.
//  * `ConsumePending` is called by mwait: it returns true (and clears the
//    flag) if a watched line was written since the last consume, so the
//    monitor→write→mwait race never loses a wakeup.
//  * Capacity is finite (`max_watch_lines`); AddWatch fails on overflow and
//    the event is counted, letting benches study filter sizing (E10).
#ifndef SRC_MEM_MONITOR_FILTER_H_
#define SRC_MEM_MONITOR_FILTER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/sim/stats.h"
#include "src/sim/types.h"

namespace casc {

struct MonitorFilterConfig {
  uint32_t max_watch_lines = 4096;       // distinct lines trackable machine-wide
  uint32_t max_watches_per_thread = 8;   // lines one ptid may watch
};

class MonitorFilter {
 public:
  // Handler invoked when a write hits a watched line of an mwait-blocked ptid.
  using WakeHandler = std::function<void(Ptid ptid, Addr line)>;

  MonitorFilter(const MonitorFilterConfig& config, StatsRegistry& stats);

  void SetWakeHandler(WakeHandler handler) { wake_handler_ = std::move(handler); }

  // Arms a watch on the line containing `addr`. Returns false if either the
  // per-thread or the global line capacity is exhausted.
  bool AddWatch(Ptid ptid, Addr addr);

  // Removes all watches of `ptid` and clears its pending flag.
  void ClearWatches(Ptid ptid);

  // Removes one watch (the line containing `addr`) from `ptid`'s set.
  // Idempotent: disarming an unwatched line is a no-op. The pending flag is
  // left alone — a write consumed as "pending" may have hit any still-armed
  // line, and protocols tolerate spurious mwait returns anyway.
  void RemoveWatch(Ptid ptid, Addr addr);

  // mwait entry: returns true if a watched write already happened (thread
  // must not block); clears the pending flag either way.
  bool ConsumePending(Ptid ptid);

  // Marks the ptid as mwait-blocked (true) or running (false).
  void SetWaiting(Ptid ptid, bool waiting);

  // Reports a write of `len` bytes at `addr` from any source.
  void OnWrite(Addr addr, uint64_t len);

  size_t WatchedLineCount() const { return watchers_.size(); }
  // Ptids with per-thread filter state (watches or a pending flag). Rejected
  // watches must not grow this.
  size_t TrackedThreadCount() const { return threads_.size(); }
  bool IsWatching(Ptid ptid, Addr addr) const;

  // Lowest-numbered ptid watching the line containing `addr`, if any. Used
  // by the exception hardware to walk a handler chain when a descriptor
  // write cannot land (§3 escalation); lowest-ptid gives a deterministic
  // pick independent of watch insertion order.
  bool FirstWatcherOf(Addr addr, Ptid* out) const {
    auto it = watchers_.find(LineBase(addr));
    if (it == watchers_.end() || it->second.empty()) {
      return false;
    }
    Ptid best = it->second[0];
    for (Ptid p : it->second) {
      best = p < best ? p : best;
    }
    *out = best;
    return true;
  }

 private:
  struct ThreadState {
    std::vector<Addr> lines;
    bool pending = false;
    bool waiting = false;
  };

  // Summary filter over watched lines: a counting Bloom-style array indexed
  // by a hash of the line address. OnWrite consults it before the per-line
  // hash-map probe, so writes to unwatched lines — the overwhelming majority
  // — cost one multiply and one array load. uint16 cannot saturate: at most
  // `max_watch_lines` (4096 by default) distinct lines are ever counted.
  static constexpr size_t kSummarySlots = 4096;
  static size_t SummarySlot(Addr line) {
    // Multiply-shift hash of the line number (Fibonacci hashing); top 12 bits.
    return static_cast<size_t>(((line >> 6) * 0x9E3779B97F4A7C15ull) >> 52);
  }

  void TriggerLine(Addr line);

  MonitorFilterConfig config_;
  WakeHandler wake_handler_;
  std::unordered_map<Addr, std::vector<Ptid>> watchers_;  // line -> ptids
  std::unordered_map<Ptid, ThreadState> threads_;
  std::array<uint16_t, kSummarySlots> summary_{};  // distinct watched lines per slot
  StatsRegistry::CounterHandle stat_watch_adds_;
  StatsRegistry::CounterHandle stat_triggers_;
  StatsRegistry::CounterHandle stat_wakes_;
  StatsRegistry::CounterHandle stat_overflows_;
};

}  // namespace casc

#endif  // SRC_MEM_MONITOR_FILTER_H_
