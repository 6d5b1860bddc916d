// Dynamic tier of casc-race: a vector-clock data-race detector implemented as
// a ConcurrencyObserver. Happens-before edges mirror the static analyzer's
// model (DESIGN.md §4h):
//
//   start  v        release: target's clock joins the issuer's
//   stop   v        acquire: issuer's clock joins the (now disabled) target's
//   rpush  v, r     release into the disabled target's context
//   rpull  v, r     acquire out of the disabled target's context
//   store->watched  release into the line's clock (and the writer advances)
//   mwait return    acquire of every line the waiter has armed
//
// Accesses that *are* the synchronization protocol are exempt from race
// pairing: a store to a line anybody is watching is the release half of a
// monitor handshake, and a load from a line the loading thread itself has
// armed is the idiomatic guarded re-check. Everything else is checked
// FastTrack-style per byte: the last write plus the read set since it, with
// epochs compared against the accessor's vector clock. amoadd is atomic;
// atomic-vs-atomic pairs do not race.
//
// The detector is deterministic (no wall clock, no unordered iteration on the
// report path) so it can ride along in the differential fuzzer.
#ifndef SRC_VERIFY_RACE_DETECTOR_H_
#define SRC_VERIFY_RACE_DETECTOR_H_

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/hwt/concurrency_observer.h"
#include "src/isa/assembler.h"
#include "src/sim/types.h"

namespace casc {
namespace verify {

struct RaceAccess {
  Ptid ptid = 0;
  Addr pc = 0;  // 0: native coroutine op (no guest pc)
  bool is_write = false;
  bool is_atomic = false;
};

struct RaceReport {
  Addr addr = 0;  // first racing byte
  RaceAccess prev;
  RaceAccess cur;
};

class RaceDetector : public ConcurrencyObserver {
 public:
  explicit RaceDetector(uint32_t num_threads);

  // Distinct racy pairs, in detection order, capped at kMaxReports.
  const std::vector<RaceReport>& reports() const { return reports_; }
  // One message per ptid at or beyond num_threads that an observer call
  // named (a detector sized short for the machine), in first-seen order.
  // Such a call is otherwise ignored.
  const std::vector<std::string>& errors() const { return errors_; }
  bool clean() const { return reports_.empty() && errors_.empty(); }
  // Total pair hits including ones deduplicated away.
  uint64_t race_hits() const { return race_hits_; }

  // "race: ptid 1 sd @0x1020 (line 7) vs ptid 0 ld @0x1044 (line 12) on 0x2000"
  static std::string Format(const RaceReport& report, const Program* program);

  static constexpr size_t kMaxReports = 64;

  // ConcurrencyObserver:
  void OnLoad(Ptid ptid, Addr addr, uint32_t size, Addr pc) override;
  void OnStore(Ptid ptid, Addr addr, uint32_t size, Addr pc) override;
  void OnAtomic(Ptid ptid, Addr addr, uint32_t size, Addr pc) override;
  void OnThreadStart(Ptid issuer, Ptid target) override;
  void OnThreadStop(Ptid issuer, Ptid target) override;
  void OnRpull(Ptid issuer, Ptid target) override;
  void OnRpush(Ptid issuer, Ptid target) override;
  void OnMonitorArm(Ptid ptid, Addr line) override;
  void OnMwaitReturn(Ptid ptid) override;
  void OnMonitorDisarm(Ptid ptid, Addr line) override;
  void OnThreadDisabled(Ptid ptid) override;

 private:
  struct ReadEntry {
    RaceAccess access;
    uint64_t clk = 0;  // accessor's epoch at the read
  };
  struct ByteState {
    bool has_write = false;
    RaceAccess last_write;
    uint64_t write_clk = 0;
    std::vector<ReadEntry> reads;  // since last_write; one entry per ptid
  };

  // clock_[a][b]: latest epoch of b that a has observed (a's own is [a][a]).
  void Join(std::vector<uint64_t>* into, const std::vector<uint64_t>& from);
  // True if an access by `ptid` at epoch `clk` happens-before the current
  // point of `observer`.
  bool OrderedBefore(Ptid ptid, uint64_t clk, Ptid observer) const {
    return clk <= clock_[observer][ptid];
  }
  // True if `ptid` is within num_threads; otherwise records an error.
  bool Known(Ptid ptid);
  bool AnyLineWatched(Addr addr, uint32_t size) const;
  bool AllLinesArmedBy(Ptid ptid, Addr addr, uint32_t size) const;
  void ReleaseInto(Ptid ptid, Addr addr, uint32_t size);
  void CheckAndRecord(Ptid ptid, Addr addr, uint32_t size, Addr pc, bool is_write,
                      bool is_atomic);
  void Report(Addr addr, const RaceAccess& prev, const RaceAccess& cur);

  std::vector<std::vector<uint64_t>> clock_;
  std::unordered_map<Addr, std::vector<uint64_t>> line_clock_;  // watched lines
  std::vector<std::set<Addr>> armed_;                // per ptid: armed line bases
  std::unordered_map<Addr, uint32_t> watch_count_;   // line -> #threads watching
  std::unordered_map<Addr, ByteState> shadow_;       // per byte
  std::vector<RaceReport> reports_;
  std::vector<std::string> errors_;
  std::vector<Ptid> unknown_ptids_;  // the ptids errors_ names
  std::set<std::tuple<Addr, Addr, Ptid, Ptid, bool, bool>> reported_;  // dedup
  uint64_t race_hits_ = 0;
};

}  // namespace verify
}  // namespace casc

#endif  // SRC_VERIFY_RACE_DETECTOR_H_
