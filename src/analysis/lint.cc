#include "src/analysis/lint.h"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>

#include "src/analysis/hb.h"

namespace casc {
namespace analysis {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

LintResult Lint(const Program& program, const LintOptions& options) {
  LintResult result;

  Addr entry = program.base;
  if (!options.entry_symbol.empty()) {
    auto it = program.symbols.find(options.entry_symbol);
    if (it == program.symbols.end()) {
      result.diagnostics.push_back(
          {rules::kTargetOutOfImage, Severity::kError, program.base, 0,
           "entry symbol '" + options.entry_symbol + "' is not defined"});
      result.errors = 1;
      return result;
    }
    entry = it->second;
  }

  const DecodedProgram decoded = DecodeProgram(program);
  if (decoded.IndexAt(entry) == SIZE_MAX) {
    std::ostringstream os;
    os << "entry point 0x" << std::hex << entry
       << " does not decode to an instruction (data, unaligned, or outside "
          "the image)";
    result.diagnostics.push_back(
        {rules::kTargetOutOfImage, Severity::kError, entry, program.LineAt(entry), os.str()});
    result.errors = 1;
    return result;
  }

  // Harness images (tN_entry symbols) are analyzed per thread region: each
  // region's entry becomes a dataflow root carrying that thread's declared
  // mode/EDP/TDT assumptions, and the cross-region happens-before pass runs
  // over the result (DESIGN.md §4h).
  const std::vector<HarnessThread> threads = HarnessThreads(program);
  std::vector<Addr> region_entries;
  for (const HarnessThread& t : threads) {
    region_entries.push_back(t.entry);
  }

  const Cfg cfg = BuildCfg(decoded, entry, region_entries);
  DataflowResult flow;
  if (threads.empty()) {
    flow = RunDataflow(decoded, cfg, options.flow);
  } else {
    std::vector<FlowRoot> roots;
    std::set<size_t> region_blocks;
    for (const HarnessThread& t : threads) {
      const size_t idx = decoded.IndexAt(t.entry);
      if (idx == SIZE_MAX) {
        continue;
      }
      AnalysisOptions opts = options.flow;
      opts.entry_supervisor = t.supervisor;
      opts.assume_edp_at_entry = t.edp != 0;
      if (t.tdt_size != 0) {
        opts.tdt_capacity = t.tdt_size;
      }
      roots.push_back({cfg.block_of[idx], EntryState(opts, /*secondary=*/false)});
      region_blocks.insert(cfg.block_of[idx]);
    }
    // An explicit entry symbol is still a root; the image base is not — in a
    // harness image only the declared threads run.
    if (!options.entry_symbol.empty() && region_blocks.count(cfg.primary_entry) == 0 &&
        cfg.primary_entry != SIZE_MAX) {
      roots.push_back({cfg.primary_entry, EntryState(options.flow, /*secondary=*/false)});
    }
    for (size_t b : cfg.secondary_entries) {
      if (region_blocks.count(b) == 0) {
        roots.push_back({b, EntryState(options.flow, /*secondary=*/true)});
      }
    }
    flow = RunDataflowRoots(decoded, cfg, options.flow, roots);
  }

  std::vector<Diagnostic> raw = RunChecks(decoded, cfg, flow, options.flow);
  if (threads.size() >= 2) {
    std::vector<Diagnostic> conc =
        RunConcurrencyChecks(program, decoded, cfg, options.flow, threads);
    raw.insert(raw.end(), std::make_move_iterator(conc.begin()),
               std::make_move_iterator(conc.end()));
    std::sort(raw.begin(), raw.end(),
              [](const Diagnostic& x, const Diagnostic& y) { return x.addr < y.addr; });
  }

  for (Diagnostic& d : raw) {
    if (d.line != 0 && program.LintAllowed(d.line, d.rule_id)) {
      continue;
    }
    if (d.severity == Severity::kNote && !options.include_notes) {
      continue;
    }
    switch (d.severity) {
      case Severity::kError:
        result.errors++;
        break;
      case Severity::kWarning:
        result.warnings++;
        break;
      case Severity::kNote:
        result.notes++;
        break;
    }
    result.diagnostics.push_back(std::move(d));
  }
  return result;
}

std::string FormatDiagnostic(const Diagnostic& diag) {
  std::ostringstream os;
  os << "0x" << std::hex << diag.addr << std::dec;
  if (diag.line != 0) {
    os << " (line " << diag.line << ")";
  }
  os << ": " << SeverityName(diag.severity) << ": [" << diag.rule_id << "] "
     << diag.message;
  return os.str();
}

void PrintDiagnostics(const LintResult& result, std::ostream& os) {
  for (const Diagnostic& d : result.diagnostics) {
    os << FormatDiagnostic(d) << "\n";
  }
  if (!result.diagnostics.empty()) {
    os << "lint: " << result.errors << " error(s), " << result.warnings
       << " warning(s), " << result.notes << " note(s)\n";
  }
}

std::string DiagnosticsToJson(const LintResult& result) {
  std::ostringstream os;
  os << "{\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : result.diagnostics) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"rule_id\":\"" << JsonEscape(d.rule_id) << "\",\"severity\":\""
       << SeverityName(d.severity) << "\",\"addr\":" << d.addr
       << ",\"line\":" << d.line << ",\"message\":\"" << JsonEscape(d.message)
       << "\"}";
  }
  os << "],\"errors\":" << result.errors << ",\"warnings\":" << result.warnings
     << ",\"notes\":" << result.notes << "}";
  return os.str();
}

}  // namespace analysis
}  // namespace casc
