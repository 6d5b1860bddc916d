#include "src/verify/race_detector.h"

#include <algorithm>
#include <sstream>

namespace casc {
namespace verify {

namespace {

// An access of size <= kLineSize covers at most two lines; visit each once.
template <typename Fn>
void ForEachLine(Addr addr, uint32_t size, Fn fn) {
  const Addr first = LineBase(addr);
  const Addr last = LineBase(addr + (size - 1));  // wraps mod 2^64 like the hw
  fn(first);
  if (last != first) {
    fn(last);
  }
}

}  // namespace

RaceDetector::RaceDetector(uint32_t num_threads)
    : clock_(num_threads, std::vector<uint64_t>(num_threads, 0)),
      armed_(num_threads) {
  for (uint32_t p = 0; p < num_threads; p++) {
    clock_[p][p] = 1;
  }
}

bool RaceDetector::Known(Ptid ptid) {
  if (ptid < clock_.size()) {
    return true;
  }
  if (std::find(unknown_ptids_.begin(), unknown_ptids_.end(), ptid) == unknown_ptids_.end()) {
    unknown_ptids_.push_back(ptid);
    errors_.push_back("race detector: ptid " + std::to_string(ptid) + " is beyond its " +
                      std::to_string(clock_.size()) + " thread(s)");
  }
  return false;
}

void RaceDetector::Join(std::vector<uint64_t>* into, const std::vector<uint64_t>& from) {
  for (size_t i = 0; i < into->size(); i++) {
    if (from[i] > (*into)[i]) {
      (*into)[i] = from[i];
    }
  }
}

bool RaceDetector::AnyLineWatched(Addr addr, uint32_t size) const {
  bool watched = false;
  ForEachLine(addr, size, [&](Addr line) {
    auto it = watch_count_.find(line);
    watched = watched || (it != watch_count_.end() && it->second > 0);
  });
  return watched;
}

bool RaceDetector::AllLinesArmedBy(Ptid ptid, Addr addr, uint32_t size) const {
  bool armed = true;
  ForEachLine(addr, size, [&](Addr line) { armed = armed && armed_[ptid].count(line) != 0; });
  return armed;
}

void RaceDetector::ReleaseInto(Ptid ptid, Addr addr, uint32_t size) {
  ForEachLine(addr, size, [&](Addr line) {
    auto it = watch_count_.find(line);
    if (it == watch_count_.end() || it->second == 0) {
      return;
    }
    auto& lc = line_clock_[line];
    if (lc.empty()) {
      lc.assign(clock_.size(), 0);
    }
    Join(&lc, clock_[ptid]);
  });
  // Advance past the release so later plain accesses by this thread are not
  // mistaken for ordered-before the waiter's acquire.
  clock_[ptid][ptid]++;
}

void RaceDetector::Report(Addr addr, const RaceAccess& prev, const RaceAccess& cur) {
  race_hits_++;
  if (reports_.size() >= kMaxReports) {
    return;
  }
  const auto key =
      std::make_tuple(prev.pc, cur.pc, prev.ptid, cur.ptid, prev.is_write, cur.is_write);
  if (!reported_.insert(key).second) {
    return;
  }
  reports_.push_back({addr, prev, cur});
}

void RaceDetector::CheckAndRecord(Ptid ptid, Addr addr, uint32_t size, Addr pc,
                                  bool is_write, bool is_atomic) {
  const RaceAccess cur{ptid, pc, is_write, is_atomic};
  const uint64_t cur_clk = clock_[ptid][ptid];
  for (uint32_t i = 0; i < size; i++) {
    const Addr a = addr + i;  // wraps mod 2^64, matching PhysMem addressing
    ByteState& bs = shadow_[a];
    // Write-write / read-write against the last write.
    if (bs.has_write && bs.last_write.ptid != ptid &&
        !(bs.last_write.is_atomic && is_atomic) &&
        !OrderedBefore(bs.last_write.ptid, bs.write_clk, ptid)) {
      Report(a, bs.last_write, cur);
    }
    if (is_write) {
      // Write-read against every read since the last write.
      for (const ReadEntry& r : bs.reads) {
        if (r.access.ptid != ptid && !(r.access.is_atomic && is_atomic) &&
            !OrderedBefore(r.access.ptid, r.clk, ptid)) {
          Report(a, r.access, cur);
        }
      }
      bs.has_write = true;
      bs.last_write = cur;
      bs.write_clk = cur_clk;
      bs.reads.clear();
    } else {
      bool replaced = false;
      for (ReadEntry& r : bs.reads) {
        if (r.access.ptid == ptid) {
          r = {cur, cur_clk};
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        bs.reads.push_back({cur, cur_clk});
      }
    }
  }
}

void RaceDetector::OnLoad(Ptid ptid, Addr addr, uint32_t size, Addr pc) {
  if (!Known(ptid)) {
    return;
  }
  if (AllLinesArmedBy(ptid, addr, size)) {
    return;  // guarded re-check of the thread's own watched line: sync access
  }
  CheckAndRecord(ptid, addr, size, pc, /*is_write=*/false, /*is_atomic=*/false);
}

void RaceDetector::OnStore(Ptid ptid, Addr addr, uint32_t size, Addr pc) {
  if (!Known(ptid)) {
    return;
  }
  if (AnyLineWatched(addr, size)) {
    ReleaseInto(ptid, addr, size);  // release half of a monitor handshake
    return;
  }
  CheckAndRecord(ptid, addr, size, pc, /*is_write=*/true, /*is_atomic=*/false);
}

void RaceDetector::OnAtomic(Ptid ptid, Addr addr, uint32_t size, Addr pc) {
  if (!Known(ptid)) {
    return;
  }
  if (AnyLineWatched(addr, size)) {
    ReleaseInto(ptid, addr, size);
    return;
  }
  CheckAndRecord(ptid, addr, size, pc, /*is_write=*/true, /*is_atomic=*/true);
}

void RaceDetector::OnThreadStart(Ptid issuer, Ptid target) {
  if (!Known(issuer) || !Known(target)) {
    return;
  }
  Join(&clock_[target], clock_[issuer]);
  clock_[issuer][issuer]++;
}

void RaceDetector::OnThreadStop(Ptid issuer, Ptid target) {
  if (!Known(issuer) || !Known(target)) {
    return;
  }
  Join(&clock_[issuer], clock_[target]);
  clock_[target][target]++;
}

void RaceDetector::OnRpull(Ptid issuer, Ptid target) {
  if (!Known(issuer) || !Known(target)) {
    return;
  }
  Join(&clock_[issuer], clock_[target]);
  clock_[target][target]++;
}

void RaceDetector::OnRpush(Ptid issuer, Ptid target) {
  if (!Known(issuer) || !Known(target)) {
    return;
  }
  Join(&clock_[target], clock_[issuer]);
  clock_[issuer][issuer]++;
}

void RaceDetector::OnMonitorArm(Ptid ptid, Addr line) {
  if (!Known(ptid)) {
    return;
  }
  if (armed_[ptid].insert(line).second) {
    watch_count_[line]++;
  }
}

void RaceDetector::OnMwaitReturn(Ptid ptid) {
  if (!Known(ptid)) {
    return;
  }
  for (Addr line : armed_[ptid]) {
    auto it = line_clock_.find(line);
    if (it != line_clock_.end()) {
      Join(&clock_[ptid], it->second);
    }
  }
}

void RaceDetector::OnMonitorDisarm(Ptid ptid, Addr line) {
  if (!Known(ptid)) {
    return;
  }
  if (armed_[ptid].erase(line) > 0) {
    auto it = watch_count_.find(line);
    if (it != watch_count_.end() && it->second > 0) {
      it->second--;
    }
  }
}

void RaceDetector::OnThreadDisabled(Ptid ptid) {
  if (!Known(ptid)) {
    return;
  }
  for (Addr line : armed_[ptid]) {
    auto it = watch_count_.find(line);
    if (it != watch_count_.end() && it->second > 0) {
      it->second--;
    }
  }
  armed_[ptid].clear();
}

std::string RaceDetector::Format(const RaceReport& report, const Program* program) {
  auto side = [&](const RaceAccess& a) {
    std::ostringstream os;
    os << "ptid " << a.ptid << " " << (a.is_atomic ? "amoadd" : a.is_write ? "store" : "load");
    if (a.pc != 0) {
      os << " @pc 0x" << std::hex << a.pc << std::dec;
      const int line = program != nullptr ? program->LineAt(a.pc) : 0;
      if (line != 0) {
        os << " (line " << line << ")";
      }
    }
    return os.str();
  };
  std::ostringstream os;
  os << "race on 0x" << std::hex << report.addr << std::dec << ": " << side(report.cur)
     << " vs " << side(report.prev) << " with no happens-before edge";
  return os.str();
}

}  // namespace verify
}  // namespace casc
