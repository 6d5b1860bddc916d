// Shared --trace / --trace-json / --stats-json handling for the example
// binaries: every example accepts
//   --trace                 render a text timeline at exit
//   --trace-json=<path>     write a Chrome trace_event JSON file
//   --stats-json=<path>     write the final stats registry as JSON
// All observe existing machine state; none costs anything when absent.
// ExampleTrace::Finish emits every export that was requested.
// Each example reads every typed flag (ExampleTrace reads --trace) before
// it calls Config::ReportParseErrors and exits 2 on a malformed value.
#ifndef EXAMPLES_EXAMPLE_UTIL_H_
#define EXAMPLES_EXAMPLE_UTIL_H_

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "src/cpu/machine.h"
#include "src/hwt/tracer.h"
#include "src/sim/config.h"
#include "src/sim/stats.h"

namespace casc {

class ExampleTrace {
 public:
  ExampleTrace(Machine& m, const Config& cfg)
      : machine_(m),
        text_(cfg.GetBool("trace", false)),
        json_path_(cfg.GetString("trace-json")),
        stats_path_(cfg.GetString("stats-json")) {
    if (enabled()) {
      m.threads().SetTracer(&tracer_);
    }
  }

  bool enabled() const { return text_ || !json_path_.empty(); }

  // Emits whatever was requested, the timeline and trace over [from, to).
  // Call once at the end of main; returns false if a file could not be
  // written.
  bool Finish(Tick from, Tick to) {
    if (text_) {
      std::printf("\nthread timeline (%llu..%llu):\n", (unsigned long long)from,
                  (unsigned long long)to);
      tracer_.DumpTimeline(std::cout, from, to, 72);
    }
    if (!json_path_.empty()) {
      std::ofstream out(json_path_);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", json_path_.c_str());
        return false;
      }
      tracer_.DumpChromeTrace(out, machine_.config().ghz);
      std::printf("trace written to %s (%zu events%s)\n", json_path_.c_str(),
                  tracer_.events().size(), tracer_.dropped() > 0 ? ", TRUNCATED" : "");
    }
    // The stats dump is a pure function of simulated state; the golden
    // digest (tests/golden/sim_digest.txt) covers every example's dump.
    if (!stats_path_.empty()) {
      std::ofstream out(stats_path_);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", stats_path_.c_str());
        return false;
      }
      machine_.sim().stats().DumpJson(out);
      return static_cast<bool>(out);
    }
    return true;
  }

 private:
  Machine& machine_;
  ThreadTracer tracer_;
  bool text_;
  std::string json_path_;
  std::string stats_path_;
};

}  // namespace casc

#endif  // EXAMPLES_EXAMPLE_UTIL_H_
