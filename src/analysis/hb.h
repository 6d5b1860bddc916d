// Whole-program concurrency analysis (casc-race, DESIGN.md §4h): carves the
// image into one region per harness thread (HarnessThreads, the tN_* symbol
// convention in src/isa/assembler.h), runs the dataflow fixed point once per
// region, and checks every cross-region pair of constant-address accesses for
// a happens-before edge. Edges come from the paper's §3.1 synchronization instructions (see
// OpcodeHbRole): start/stop, rpull/rpush, and the monitor/mwait protocol
// (a store to a watched line is a release into the line; an mwait return or
// a guarded load of a self-armed line is an acquire of it).
//
// The pass is deliberately conservative in what it *collects* (only accesses
// whose address is a propagated constant participate) and in what it
// *exonerates* (an edge must be provable from the region dataflow), so a
// clean verdict means "no race among the statically visible accesses", not
// "no race". The dynamic tier (src/verify/race_detector.h) covers the rest.
#ifndef SRC_ANALYSIS_HB_H_
#define SRC_ANALYSIS_HB_H_

#include <string>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/checks.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/decoder.h"
#include "src/isa/assembler.h"
#include "src/sim/types.h"

namespace casc {
namespace analysis {

// Runs the pair analysis and returns data-race / monitor-store-race /
// unsynchronized-start diagnostics. `cfg` must have been built with every
// thread's entry as an extra entry (BuildCfg's extra_entries) so each region
// starts on a block boundary.
std::vector<Diagnostic> RunConcurrencyChecks(const Program& program,
                                             const DecodedProgram& prog, const Cfg& cfg,
                                             const AnalysisOptions& options,
                                             const std::vector<HarnessThread>& threads);

}  // namespace analysis
}  // namespace casc

#endif  // SRC_ANALYSIS_HB_H_
