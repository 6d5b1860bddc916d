// Key/value run configuration with typed accessors, parsed from
// `--key=value` command-line flags. Bench and example binaries use this to
// expose every machine knob without per-binary flag plumbing.
#ifndef SRC_SIM_CONFIG_H_
#define SRC_SIM_CONFIG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace casc {

class Config {
 public:
  Config() = default;

  // Parses argv entries of the form --key=value (or --flag for booleans).
  // Returns false and sets `error` on malformed input.
  bool ParseArgs(int argc, const char* const* argv, std::string* error = nullptr);

  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
    InvalidateCaches();
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  // Typed accessors parse each value at most once and memoize the result;
  // Set()/ParseArgs() invalidate the caches. A malformed value returns `def`
  // and records the offending key in parse_errors(). Numbers must parse
  // fully — trailing junk is malformed. Booleans are true/1/yes/on or
  // false/0/no/off (a bare --flag is "true"); anything else is malformed.
  std::string GetString(const std::string& key, const std::string& def = "") const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  uint64_t GetUint(const std::string& key, uint64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  // One "key=value (type)" entry per malformed value seen by a typed
  // accessor, in first-seen order.
  const std::vector<std::string>& parse_errors() const { return parse_errors_; }
  // Prints one "bad flag value: ..." line to stderr per parse error and
  // returns true if there was any. Tools call it after their typed reads and
  // exit 2 on true, so a malformed value never silently becomes the default.
  bool ReportParseErrors() const;

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  void InvalidateCaches() {
    int_cache_.clear();
    uint_cache_.clear();
    double_cache_.clear();
    bool_cache_.clear();
    parse_errors_.clear();
  }

  std::map<std::string, std::string> values_;
  // nullopt caches a parse failure so the error path is memoized too.
  mutable std::map<std::string, std::optional<int64_t>> int_cache_;
  mutable std::map<std::string, std::optional<uint64_t>> uint_cache_;
  mutable std::map<std::string, std::optional<double>> double_cache_;
  mutable std::map<std::string, std::optional<bool>> bool_cache_;
  mutable std::vector<std::string> parse_errors_;
};

}  // namespace casc

#endif  // SRC_SIM_CONFIG_H_
