// Thread-state tracing: an optional observer recording every
// runnable/waiting/disabled transition with its cause, plus a compact text
// timeline renderer. Used for debugging guest software and for the examples'
// `--trace` flags; zero overhead when no tracer is installed.
#ifndef SRC_HWT_TRACER_H_
#define SRC_HWT_TRACER_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/hwt/hw_thread.h"
#include "src/sim/types.h"

namespace casc {

enum class TraceCause : uint8_t {
  kStart = 0,       // start instruction / host boot
  kStop = 1,        // stop instruction / halt / hcall 0
  kMwait = 2,       // blocked in mwait
  kMonitorWake = 3, // monitor filter fired
  kException = 4,   // fault disabled the thread
};

const char* TraceCauseName(TraceCause cause);

class ThreadTracer {
 public:
  struct Event {
    Tick tick;
    Ptid ptid;
    ThreadState from;
    ThreadState to;
    TraceCause cause;
  };

  void Record(Tick tick, Ptid ptid, ThreadState from, ThreadState to, TraceCause cause) {
    if (events_.size() < max_events_) {
      events_.push_back({tick, ptid, from, to, cause});
    } else {
      // Count what the cap discards so consumers can tell a quiet tail from
      // a truncated one.
      dropped_++;
    }
  }

  // Point-in-time annotation (no duration): injected faults, recoveries,
  // campaign milestones. Rendered as Chrome-trace instant events on the
  // ptid's track; shares the event cap with state transitions.
  struct Mark {
    Tick tick;
    Ptid ptid;
    std::string label;
  };

  void RecordMark(Tick tick, Ptid ptid, std::string label) {
    if (events_.size() + marks_.size() < max_events_) {
      marks_.push_back({tick, ptid, std::move(label)});
    } else {
      dropped_++;
    }
  }

  const std::vector<Event>& events() const { return events_; }
  const std::vector<Mark>& marks() const { return marks_; }
  // Events discarded because the buffer reached max_events().
  uint64_t dropped() const { return dropped_; }
  void Clear() {
    events_.clear();
    marks_.clear();
    dropped_ = 0;
  }
  void set_max_events(size_t n) { max_events_ = n; }
  size_t max_events() const { return max_events_; }

  // Events touching one thread, in order.
  std::vector<Event> ForThread(Ptid ptid) const {
    std::vector<Event> out;
    for (const Event& e : events()) {
      if (e.ptid == ptid) {
        out.push_back(e);
      }
    }
    return out;
  }

  // Renders one line per thread over [from, to): 'R' runnable, 'w' waiting,
  // '.' disabled, sampled into `width` buckets. Notes dropped events so a
  // truncated trace is never silently presented as complete.
  void DumpTimeline(std::ostream& os, Tick from, Tick to, uint32_t width = 80) const;

  // Chrome trace_event ("catapult") JSON: one track (tid) per ptid, one
  // complete ("X") span per thread-state interval with the entering cause as
  // an argument. Load the file at chrome://tracing or ui.perfetto.dev.
  // `ghz` converts ticks (cycles) to the format's microsecond timestamps.
  void DumpChromeTrace(std::ostream& os, double ghz = 3.0) const;

 private:
  std::vector<Event> events_;
  std::vector<Mark> marks_;
  size_t max_events_ = 1 << 20;
  uint64_t dropped_ = 0;
};

}  // namespace casc

#endif  // SRC_HWT_TRACER_H_
