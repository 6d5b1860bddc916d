// Basic-block control-flow graph over a decoded program. Branch and jal
// targets are resolved statically from the instruction encoding; `jalr` with a
// statically unknown target is flagged conservatively (no successors, the
// block is marked `indirect_exit`) rather than guessed at. `jal` is modeled as
// a call: both the target and the fall-through return site are successors,
// and the return edge is tagged so dataflow can havoc register state across
// the callee.
#ifndef SRC_ANALYSIS_CFG_H_
#define SRC_ANALYSIS_CFG_H_

#include <cstddef>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/sim/types.h"

namespace casc {
namespace analysis {

struct CfgEdge {
  size_t to = 0;            // successor block id
  bool call_return = false; // fall-through past a jal call site
};

struct BasicBlock {
  size_t first = 0;  // inclusive instruction-index range into insts
  size_t last = 0;
  std::vector<CfgEdge> succs;
  bool indirect_exit = false;    // ends in jalr with unknown target (not ret)
  bool is_return = false;        // ends in `jalr r0, r31, 0` (ret)
  bool falls_off_image = false;  // fall-through runs past the image end
  bool falls_into_data = false;  // fall-through lands in a data range
  std::vector<Addr> bad_targets; // branch/jal targets outside decodable code
};

struct Cfg {
  std::vector<BasicBlock> blocks;
  std::vector<size_t> block_of;          // instruction index -> block id
  size_t primary_entry = SIZE_MAX;       // block of the thread entry point
  std::vector<size_t> secondary_entries; // blocks of address-taken code
};

// True if control cannot fall through past `inst` to the next word.
bool IsTerminator(const Instruction& inst);
// Branch/jal target address, or nullopt for non-control-flow instructions.
// `addr` is the instruction's own address.
bool StaticTarget(const Instruction& inst, Addr addr, Addr* target);

// `extra_entries` adds more block leaders (per-thread region entry points from
// harness tN_entry symbols); each becomes a block boundary so the concurrency
// pass can seed a dataflow root exactly at a region's first instruction.
Cfg BuildCfg(const DecodedProgram& prog, Addr entry,
             const std::vector<Addr>& extra_entries = {});

}  // namespace analysis
}  // namespace casc

#endif  // SRC_ANALYSIS_CFG_H_
