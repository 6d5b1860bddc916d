// Two-pass assembler for the CASC ISA. Supports labels, the directives
// `.org`, `.word`, `.word32`, `.space`, `.align`, pseudo-instructions
// (li, la, mv, j, call, ret, bgt, ble), named CSRs and named remote registers.
#ifndef SRC_ISA_ASSEMBLER_H_
#define SRC_ISA_ASSEMBLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/isa/isa.h"
#include "src/mem/phys_mem.h"
#include "src/sim/types.h"

namespace casc {

// A non-code region of the image: `.word` / `.word32` data, `.space`
// reservations, and `.org` / `.align` padding. `elem` is the element size in
// bytes for initialized data (8 or 4), or 0 for uninitialized fill.
struct DataRange {
  Addr start = 0;
  Addr end = 0;  // exclusive
  uint32_t elem = 0;
};

// An assembled image: bytes starting at `base`, plus the symbol table.
// The remaining fields are metadata for static analysis (src/analysis/):
// they are populated when assembling from source and empty for raw images
// loaded from disk, so consumers must tolerate their absence.
struct Program {
  Addr base = 0;
  std::vector<uint8_t> bytes;
  std::map<std::string, Addr> symbols;

  // Word address -> 1-based source line of the statement that emitted it.
  std::map<Addr, int> lines;
  // Regions that hold data rather than instructions, in address order.
  std::vector<DataRange> data_ranges;
  // Per-line lint suppressions from `; lint-allow: <rule>[, <rule>...]`
  // comments ("*" allows every rule on that line).
  std::map<int, std::vector<std::string>> lint_allows;

  Addr Symbol(const std::string& name) const;
  Addr end() const { return base + bytes.size(); }
  int LineAt(Addr addr) const;  // 0 if unknown
  bool InData(Addr addr) const;
  bool LintAllowed(int line, const std::string& rule_id) const;
  void LoadInto(PhysicalMemory& mem) const;
};

// One hardware thread declared by a harness image. An image can describe its
// own machine setup through symbols, so one `.casm` file is self-contained:
//   tN_entry    ptid N participates; entry pc for the thread
//   tN_main     ptid N is started at boot (otherwise it waits for `start`)
//   tN_user     ptid N runs in user mode (default: supervisor)
//   tN_edp      ptid N's exception descriptor pointer
//   tN_tdt      ptid N's TDT base, with tN_tdt_end just past its last entry;
//               the table counts only when both are defined and end > base
//               (otherwise the thread has no TDT: tdtr = tdt_size = 0)
// N is a ptid written in plain decimal ("t1", never "t01"). The simulator
// boots these threads (src/verify/harness.h) and the analyzer carves one
// region per thread (src/analysis/hb.h) from this one parse.
struct HarnessThread {
  Ptid ptid = 0;
  Addr entry = 0;
  bool auto_start = false;
  bool supervisor = true;
  Addr edp = 0;
  Addr tdtr = 0;
  uint64_t tdt_size = 0;  // entries
};

// The threads `program` declares through tN_entry symbols, in ptid order.
// Empty for a plain program.
std::vector<HarnessThread> HarnessThreads(const Program& program);

struct AssembleResult {
  bool ok = false;
  std::string error;  // includes the 1-based source line on failure
  Program program;
};

class Assembler {
 public:
  // Assembles `source` with the first instruction at `base`.
  static AssembleResult Assemble(const std::string& source, Addr base = 0x1000);
};

}  // namespace casc

#endif  // SRC_ISA_ASSEMBLER_H_
