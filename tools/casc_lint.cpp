// casc-lint: static analyzer for CASC assembly programs.
//
//   casc-lint prog.casm [--base=0x1000] [--entry=symbol] [--user]
//             [--assume-edp] [--tdt-capacity=64] [--format=text|json]
//             [--json] [--no-notes]
//
// `--json` is shorthand for `--format=json`; the schema is documented in
// tools/README.md and validated by `casc-bench-check --lint`.
//
// Assembles the program, rebuilds its control-flow graph, runs the dataflow
// passes, and reports rule violations (see src/analysis/checks.h for the rule
// table). Exit status: 0 if no error-severity diagnostics were reported, 1 if
// any were, 2 on usage or assembly failure.
//
// `--user` assumes the program enters in user mode (casc-run boots programs
// in supervisor mode, which is also the lint default). `--assume-edp` assumes
// the loader installed an exception descriptor pointer before entry.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "src/analysis/lint.h"
#include "src/isa/assembler.h"
#include "src/sim/config.h"

using namespace casc;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: casc-lint <file.casm> [--base=0x1000] [--entry=symbol] [--user]\n"
               "                 [--assume-edp] [--tdt-capacity=64] [--format=text|json]\n"
               "                 [--no-notes]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string path = argv[1];
  Config cfg;
  std::string err;
  if (!cfg.ParseArgs(argc - 1, argv + 1, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return Usage();
  }
  static const std::set<std::string> kKnown = {
      "base", "entry", "user", "assume-edp", "tdt-capacity", "format",
      "json", "no-notes"};
  for (const auto& [key, value] : cfg.values()) {
    if (!kKnown.count(key)) {
      std::fprintf(stderr, "unknown option --%s\n", key.c_str());
      return Usage();
    }
  }
  const std::string format =
      cfg.GetBool("json", false) ? "json" : cfg.GetString("format", "text");
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "unknown --format=%s\n", format.c_str());
    return Usage();
  }
  const uint64_t base = cfg.GetUint("base", 0x1000);
  const uint64_t tdt_capacity = cfg.GetUint("tdt-capacity", 64);
  const bool user = cfg.GetBool("user", false);
  const bool assume_edp = cfg.GetBool("assume-edp", false);
  const bool no_notes = cfg.GetBool("no-notes", false);
  if (cfg.ReportParseErrors()) {
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  const AssembleResult assembled = Assembler::Assemble(ss.str(), base);
  if (!assembled.ok) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), assembled.error.c_str());
    return 2;
  }

  analysis::LintOptions options;
  options.entry_symbol = cfg.GetString("entry");
  options.flow.entry_supervisor = !user;
  options.flow.assume_edp_at_entry = assume_edp;
  options.flow.tdt_capacity = tdt_capacity;
  options.include_notes = !no_notes;

  const analysis::LintResult result = analysis::Lint(assembled.program, options);
  if (format == "json") {
    std::cout << analysis::DiagnosticsToJson(result) << "\n";
  } else {
    analysis::PrintDiagnostics(result, std::cout);
    if (result.clean()) {
      std::printf("%s: clean\n", path.c_str());
    }
  }
  return result.ok() ? 0 : 1;
}
