// casc-bench-check: schema validator for the JSON artifacts the repo emits.
//
//   casc-bench-check <BENCH_*.json> ...             validate bench reports
//   casc-bench-check --trace <trace.json> ...       validate Chrome trace files
//   casc-bench-check --stats <stats.json> ...       validate stats dumps
//   casc-bench-check --lint <lint.json> ...         validate casc-lint --json
//
// Exit 0 if every file parses and satisfies its schema, 1 otherwise (every
// violation is printed). Used by the bench-smoke ctest tier so a bench whose
// reporting silently breaks fails CI rather than producing an empty file.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/sim/json.h"

using namespace casc;

namespace {

int g_errors = 0;

void Fail(const std::string& file, const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", file.c_str(), msg.c_str());
  g_errors++;
}

bool IsFiniteNumber(const JsonValue* v) {
  return v != nullptr && v->is_number() && std::isfinite(v->num_v);
}

bool LoadJson(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    Fail(path, "cannot read file");
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!JsonValue::Parse(ss.str(), out, &err)) {
    Fail(path, "invalid JSON: " + err);
    return false;
  }
  return true;
}

// {"bench": str, "smoke": bool, "results": [{experiment, config, metric,
//  value}...]} — results must be non-empty and every value finite.
// `interp_floor_minsts` > 0 additionally gates the t2_simhost "interp" row's
// host throughput (Minsts/s) — the Release bench-smoke tier's perf
// regression fence for the direct-threaded/fused engine (§4j).
void CheckBenchReport(const std::string& path, double interp_floor_minsts) {
  JsonValue root;
  if (!LoadJson(path, &root)) {
    return;
  }
  if (!root.is_object()) {
    Fail(path, "top level is not an object");
    return;
  }
  const JsonValue* bench = root.Find("bench");
  if (bench == nullptr || !bench->is_string() || bench->str_v.empty()) {
    Fail(path, "missing or empty \"bench\" name");
  }
  const JsonValue* smoke = root.Find("smoke");
  if (smoke == nullptr || smoke->type != JsonValue::Type::kBool) {
    Fail(path, "missing boolean \"smoke\"");
  }
  const JsonValue* results = root.Find("results");
  if (results == nullptr || !results->is_array()) {
    Fail(path, "missing \"results\" array");
    return;
  }
  if (results->arr.empty()) {
    Fail(path, "\"results\" is empty — the bench recorded nothing");
    return;
  }
  for (size_t i = 0; i < results->arr.size(); i++) {
    const JsonValue& r = results->arr[i];
    const std::string at = "results[" + std::to_string(i) + "]";
    if (!r.is_object()) {
      Fail(path, at + " is not an object");
      continue;
    }
    for (const char* key : {"experiment", "config", "metric"}) {
      const JsonValue* v = r.Find(key);
      if (v == nullptr || !v->is_string() || v->str_v.empty()) {
        Fail(path, at + " missing or empty string \"" + key + "\"");
      }
    }
    if (!IsFiniteNumber(r.Find("value"))) {
      Fail(path, at + " \"value\" is missing, non-numeric, or non-finite");
    }
  }

  // The simhost bench measures host wall-time; every other metric in the repo
  // is sim-side, so the generic checks above cannot tell a broken timer from
  // a healthy one. Require each config to report positive host wall-time and
  // host throughput.
  if (bench != nullptr && bench->is_string() && bench->str_v == "t2_simhost") {
    std::map<std::string, bool> host_ms_ok;
    std::map<std::string, bool> throughput_ok;
    for (const JsonValue& r : results->arr) {
      if (!r.is_object()) {
        continue;
      }
      const JsonValue* config = r.Find("config");
      const JsonValue* metric = r.Find("metric");
      const JsonValue* value = r.Find("value");
      if (config == nullptr || !config->is_string() || metric == nullptr ||
          !metric->is_string()) {
        continue;
      }
      host_ms_ok.try_emplace(config->str_v, false);
      throughput_ok.try_emplace(config->str_v, false);
      const bool positive = IsFiniteNumber(value) && value->num_v > 0;
      if (metric->str_v == "host_ms" && positive) {
        host_ms_ok[config->str_v] = true;
      }
      if (metric->str_v == "sim_insts_per_sec" && positive) {
        throughput_ok[config->str_v] = true;
      }
    }
    for (const auto& [config, ok] : host_ms_ok) {
      if (!ok) {
        Fail(path, "simhost config \"" + config + "\" missing positive \"host_ms\"");
      }
    }
    for (const auto& [config, ok] : throughput_ok) {
      if (!ok) {
        Fail(path,
             "simhost config \"" + config + "\" missing positive \"sim_insts_per_sec\"");
      }
    }
    // The 8-core row and the interpreter row (§4j) must be present: a
    // refactor that silently dropped either would otherwise still pass the
    // per-config checks above.
    for (const char* required : {"multicore8", "interp"}) {
      if (host_ms_ok.find(required) == host_ms_ok.end()) {
        Fail(path, "simhost sweep missing required config \"" + std::string(required) + "\"");
      }
    }
    // The interp row must carry the per-pattern fusion-hit-rate stats (§4j):
    // every fused_pairs_* count present and finite, and the overall pair
    // rate present. The count-loop workload fuses its addi+bne pair, so the
    // rate must also be strictly positive — a fusion pass that silently
    // stopped matching would zero it.
    bool rate_ok = false;
    std::map<std::string, bool> pattern_ok = {{"fused_pairs_cmp_branch", false},
                                              {"fused_pairs_load_alu", false},
                                              {"fused_pairs_addi_store", false},
                                              {"fused_pairs_monitor_mwait", false}};
    for (const JsonValue& r : results->arr) {
      if (!r.is_object()) {
        continue;
      }
      const JsonValue* config = r.Find("config");
      const JsonValue* metric = r.Find("metric");
      const JsonValue* value = r.Find("value");
      if (config == nullptr || !config->is_string() || config->str_v != "interp" ||
          metric == nullptr || !metric->is_string()) {
        continue;
      }
      auto it = pattern_ok.find(metric->str_v);
      if (it != pattern_ok.end() && IsFiniteNumber(value) && value->num_v >= 0) {
        it->second = true;
      }
      if (metric->str_v == "fused_pair_rate" && IsFiniteNumber(value) && value->num_v > 0) {
        rate_ok = true;
      }
    }
    for (const auto& [metric, ok] : pattern_ok) {
      if (!ok) {
        Fail(path, "simhost config \"interp\" missing \"" + metric + "\"");
      }
    }
    if (!rate_ok) {
      Fail(path, "simhost config \"interp\" missing positive \"fused_pair_rate\"");
    }
    if (interp_floor_minsts > 0) {
      double interp_minsts = -1;
      for (const JsonValue& r : results->arr) {
        if (!r.is_object()) {
          continue;
        }
        const JsonValue* config = r.Find("config");
        const JsonValue* metric = r.Find("metric");
        const JsonValue* value = r.Find("value");
        if (config != nullptr && config->is_string() && config->str_v == "interp" &&
            metric != nullptr && metric->is_string() &&
            metric->str_v == "sim_insts_per_sec" && IsFiniteNumber(value)) {
          interp_minsts = value->num_v / 1e6;
        }
      }
      if (interp_minsts < interp_floor_minsts) {
        std::ostringstream msg;
        msg << "simhost \"interp\" throughput " << interp_minsts << " Minsts/s below the floor "
            << interp_floor_minsts << " (dispatch/fusion perf regression)";
        Fail(path, msg.str());
      }
    }
  }

  // The recovery bench proves faults were actually exercised: each fault
  // class must report a positive injection count plus recovery metrics (which
  // may legitimately be zero — the chain-exhaustion row halts instead of
  // recovering, so presence, not positivity, is the contract).
  if (bench != nullptr && bench->is_string() && bench->str_v == "e11_recovery") {
    std::map<std::string, bool> injected_ok;
    std::map<std::string, bool> recovered_ok;
    std::map<std::string, bool> recovery_p50_ok;
    for (const JsonValue& r : results->arr) {
      if (!r.is_object()) {
        continue;
      }
      const JsonValue* config = r.Find("config");
      const JsonValue* metric = r.Find("metric");
      const JsonValue* value = r.Find("value");
      if (config == nullptr || !config->is_string() || metric == nullptr ||
          !metric->is_string()) {
        continue;
      }
      injected_ok.try_emplace(config->str_v, false);
      recovered_ok.try_emplace(config->str_v, false);
      recovery_p50_ok.try_emplace(config->str_v, false);
      if (metric->str_v == "injected" && IsFiniteNumber(value) && value->num_v > 0) {
        injected_ok[config->str_v] = true;
      }
      if (metric->str_v == "recovered" && IsFiniteNumber(value)) {
        recovered_ok[config->str_v] = true;
      }
      if (metric->str_v == "recovery_p50_cycles" && IsFiniteNumber(value)) {
        recovery_p50_ok[config->str_v] = true;
      }
    }
    for (const auto& [config, ok] : injected_ok) {
      if (!ok) {
        Fail(path, "recovery config \"" + config + "\" missing positive \"injected\"");
      }
    }
    for (const auto& [config, ok] : recovered_ok) {
      if (!ok) {
        Fail(path, "recovery config \"" + config + "\" missing \"recovered\"");
      }
    }
    for (const auto& [config, ok] : recovery_p50_ok) {
      if (!ok) {
        Fail(path,
             "recovery config \"" + config + "\" missing \"recovery_p50_cycles\"");
      }
    }
  }

  // The ring-transport bench carries the E14 headline in its shape: batched
  // ring calls (depth >= 4) must beat the per-call channel on cycles/call,
  // every burstiness row must complete its full arrival count, and the
  // worker-policy ablation must include the deep-park counters.
  if (bench != nullptr && bench->is_string() && bench->str_v == "e14_ring") {
    double channel_cycles = 0;
    double ring_b4_cycles = 0;
    size_t burstiness_rows = 0;
    size_t policy_rows = 0;
    bool deep_park_metric = false;
    for (const JsonValue& r : results->arr) {
      if (!r.is_object()) {
        continue;
      }
      const JsonValue* experiment = r.Find("experiment");
      const JsonValue* config = r.Find("config");
      const JsonValue* metric = r.Find("metric");
      const JsonValue* value = r.Find("value");
      if (experiment == nullptr || !experiment->is_string() || config == nullptr ||
          !config->is_string() || metric == nullptr || !metric->is_string()) {
        continue;
      }
      if (experiment->str_v == "throughput" && metric->str_v == "cycles_per_call" &&
          IsFiniteNumber(value)) {
        if (config->str_v == "channel") {
          channel_cycles = value->num_v;
        }
        if (config->str_v == "ring_b4") {
          ring_b4_cycles = value->num_v;
        }
      }
      if (experiment->str_v == "burstiness" && metric->str_v == "completed") {
        burstiness_rows++;
        if (!IsFiniteNumber(value) || value->num_v <= 0) {
          Fail(path, "burstiness config \"" + config->str_v + "\" completed nothing");
        }
      }
      if (experiment->str_v == "worker_policy") {
        if (metric->str_v == "deep_parks" && IsFiniteNumber(value)) {
          deep_park_metric = true;
        }
        if (metric->str_v == "completed") {
          policy_rows++;
          if (!IsFiniteNumber(value) || value->num_v <= 0) {
            Fail(path, "worker_policy config \"" + config->str_v + "\" completed nothing");
          }
        }
      }
    }
    if (channel_cycles <= 0 || ring_b4_cycles <= 0) {
      Fail(path, "ring bench missing throughput rows for \"channel\" and \"ring_b4\"");
    } else if (ring_b4_cycles >= channel_cycles) {
      std::ostringstream msg;
      msg << "ring_b4 (" << ring_b4_cycles << " cyc/call) does not beat the per-call channel ("
          << channel_cycles << ") — the E14 batching claim regressed";
      Fail(path, msg.str());
    }
    if (burstiness_rows == 0) {
      Fail(path, "ring bench has no burstiness rows");
    }
    if (policy_rows == 0 || !deep_park_metric) {
      Fail(path, "ring bench worker-policy ablation rows are missing");
    }
  }
}

// Chrome trace_event: {"traceEvents": [...]} where every event has ph/pid/
// tid, "X" events carry finite ts and dur, and otherData records the clock.
void CheckChromeTrace(const std::string& path) {
  JsonValue root;
  if (!LoadJson(path, &root)) {
    return;
  }
  if (!root.is_object()) {
    Fail(path, "top level is not an object");
    return;
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    Fail(path, "missing \"traceEvents\" array");
    return;
  }
  if (events->arr.empty()) {
    Fail(path, "\"traceEvents\" is empty — nothing was traced");
  }
  size_t spans = 0;
  for (size_t i = 0; i < events->arr.size(); i++) {
    const JsonValue& e = events->arr[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      Fail(path, at + " is not an object");
      continue;
    }
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->str_v.empty()) {
      Fail(path, at + " missing \"ph\"");
      continue;
    }
    const JsonValue* name = e.Find("name");
    if (name == nullptr || !name->is_string() || name->str_v.empty()) {
      Fail(path, at + " missing \"name\"");
    }
    if (!IsFiniteNumber(e.Find("pid")) || !IsFiniteNumber(e.Find("tid"))) {
      Fail(path, at + " missing numeric pid/tid");
    }
    if (ph->str_v == "X") {
      spans++;
      if (!IsFiniteNumber(e.Find("ts")) || !IsFiniteNumber(e.Find("dur"))) {
        Fail(path, at + " complete event missing finite ts/dur");
      } else if (e.Find("ts")->num_v < 0 || e.Find("dur")->num_v < 0) {
        Fail(path, at + " has negative ts or dur");
      }
    }
  }
  if (!events->arr.empty() && spans == 0) {
    Fail(path, "no \"X\" (complete) span events");
  }
  const JsonValue* other = root.Find("otherData");
  if (other == nullptr || !other->is_object() ||
      !IsFiniteNumber(other->Find("clock_ghz"))) {
    Fail(path, "missing \"otherData\" with numeric clock_ghz");
  }
}

// StatsRegistry::DumpJson: {"counters": {...}, "histograms": {name:
// {count, mean, ..., buckets: [[lo, n]...]}}}.
void CheckStatsDump(const std::string& path) {
  JsonValue root;
  if (!LoadJson(path, &root)) {
    return;
  }
  const JsonValue* counters = root.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    Fail(path, "missing \"counters\" object");
  } else {
    for (const auto& [name, v] : counters->obj) {
      if (!IsFiniteNumber(&v)) {
        Fail(path, "counter \"" + name + "\" is not a finite number");
      }
    }
  }
  const JsonValue* hists = root.Find("histograms");
  if (hists == nullptr || !hists->is_object()) {
    Fail(path, "missing \"histograms\" object");
    return;
  }
  for (const auto& [name, h] : hists->obj) {
    if (!h.is_object()) {
      Fail(path, "histogram \"" + name + "\" is not an object");
      continue;
    }
    for (const char* key : {"count", "mean", "stddev", "min", "max", "p50", "p90", "p99",
                            "p999"}) {
      if (!IsFiniteNumber(h.Find(key))) {
        Fail(path, "histogram \"" + name + "\" missing finite \"" + key + "\"");
      }
    }
    const JsonValue* buckets = h.Find("buckets");
    if (buckets == nullptr || !buckets->is_array()) {
      Fail(path, "histogram \"" + name + "\" missing \"buckets\" array");
    }
  }
}

// casc-lint --json / DiagnosticsToJson: {"diagnostics": [{rule_id, severity,
// addr, line, message}...], "errors": N, "warnings": N, "notes": N} — the
// counts must agree with the array, and severity must be a known level.
void CheckLintJson(const std::string& path) {
  JsonValue root;
  if (!LoadJson(path, &root)) {
    return;
  }
  if (!root.is_object()) {
    Fail(path, "top level is not an object");
    return;
  }
  const JsonValue* diags = root.Find("diagnostics");
  if (diags == nullptr || !diags->is_array()) {
    Fail(path, "missing \"diagnostics\" array");
    return;
  }
  std::map<std::string, double> counted = {{"error", 0}, {"warning", 0}, {"note", 0}};
  for (size_t i = 0; i < diags->arr.size(); i++) {
    const JsonValue& d = diags->arr[i];
    const std::string at = "diagnostics[" + std::to_string(i) + "]";
    if (!d.is_object()) {
      Fail(path, at + " is not an object");
      continue;
    }
    const JsonValue* rule = d.Find("rule_id");
    if (rule == nullptr || !rule->is_string() || rule->str_v.empty()) {
      Fail(path, at + " missing or empty \"rule_id\"");
    }
    const JsonValue* sev = d.Find("severity");
    if (sev == nullptr || !sev->is_string() || counted.count(sev->str_v) == 0) {
      Fail(path, at + " \"severity\" is not one of error/warning/note");
    } else {
      counted[sev->str_v]++;
    }
    if (!IsFiniteNumber(d.Find("addr")) || !IsFiniteNumber(d.Find("line"))) {
      Fail(path, at + " missing numeric addr/line");
    }
    const JsonValue* msg = d.Find("message");
    if (msg == nullptr || !msg->is_string() || msg->str_v.empty()) {
      Fail(path, at + " missing or empty \"message\"");
    }
  }
  const std::map<std::string, std::string> totals = {
      {"errors", "error"}, {"warnings", "warning"}, {"notes", "note"}};
  for (const auto& [key, sev] : totals) {
    const JsonValue* v = root.Find(key);
    if (!IsFiniteNumber(v)) {
      Fail(path, "missing numeric \"" + key + "\"");
    } else if (v->num_v != counted.at(sev)) {
      Fail(path, "\"" + key + "\" (" + std::to_string(static_cast<long long>(v->num_v)) +
                     ") disagrees with the diagnostics array (" +
                     std::to_string(static_cast<long long>(counted.at(sev))) + ")");
    }
  }
}

// Strict parse of a --interp-floor value: the whole string must be a finite
// number > 0. A floor of 0 means "no gate", so a value that does not parse
// must be an error, never a silent 0.
bool ParseFloor(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kBench, kTrace, kStats, kLint } mode = Mode::kBench;
  double interp_floor = 0;  // Minsts/s; 0 = no throughput gate
  int checked = 0;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--interp-floor") == 0) {
      if (i + 1 >= argc || !ParseFloor(argv[i + 1], &interp_floor)) {
        std::fprintf(stderr, "--interp-floor needs a number of Minsts/s > 0, got %s\n",
                     i + 1 < argc ? argv[i + 1] : "nothing");
        return 2;
      }
      i++;
      continue;
    }
    if (std::strcmp(argv[i], "--trace") == 0) {
      mode = Mode::kTrace;
      continue;
    }
    if (std::strcmp(argv[i], "--stats") == 0) {
      mode = Mode::kStats;
      continue;
    }
    if (std::strcmp(argv[i], "--lint") == 0) {
      mode = Mode::kLint;
      continue;
    }
    switch (mode) {
      case Mode::kBench:
        CheckBenchReport(argv[i], interp_floor);
        break;
      case Mode::kTrace:
        CheckChromeTrace(argv[i]);
        break;
      case Mode::kStats:
        CheckStatsDump(argv[i]);
        break;
      case Mode::kLint:
        CheckLintJson(argv[i]);
        break;
    }
    checked++;
  }
  if (checked == 0) {
    std::fprintf(stderr,
                 "usage: casc-bench-check [--interp-floor <Minsts/s>] [--trace|--stats|--lint] <file.json> ...\n");
    return 2;
  }
  if (g_errors > 0) {
    std::fprintf(stderr, "%d problem%s in %d file%s\n", g_errors, g_errors == 1 ? "" : "s",
                 checked, checked == 1 ? "" : "s");
    return 1;
  }
  std::printf("%d file%s OK\n", checked, checked == 1 ? "" : "s");
  return 0;
}
