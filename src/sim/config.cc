#include "src/sim/config.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace casc {
namespace {

// Full-string strict parses: empty input, trailing junk, or out-of-range
// values are failures, unlike raw strtoll which silently accepts a prefix.
std::optional<int64_t> ParseInt(const std::string& s) {
  if (s.empty()) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const int64_t v = std::strtoll(s.c_str(), &end, 0);
  if (errno != 0 || end != s.c_str() + s.size()) {
    return std::nullopt;
  }
  return v;
}

std::optional<uint64_t> ParseUint(const std::string& s) {
  // Reject leading '-': strtoull would silently wrap it around.
  if (s.empty() || s[0] == '-') {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const uint64_t v = std::strtoull(s.c_str(), &end, 0);
  if (errno != 0 || end != s.c_str() + s.size()) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> ParseDouble(const std::string& s) {
  if (s.empty()) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> ParseBool(const std::string& s) {
  if (s == "true" || s == "1" || s == "yes" || s == "on") {
    return true;
  }
  if (s == "false" || s == "0" || s == "no" || s == "off") {
    return false;
  }
  return std::nullopt;
}

}  // namespace

bool Config::ParseArgs(int argc, const char* const* argv, std::string* error) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (error != nullptr) {
        *error = "expected --key=value, got: " + arg;
      }
      return false;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  InvalidateCaches();
  return true;
}

std::string Config::GetString(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

int64_t Config::GetInt(const std::string& key, int64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  auto [cit, inserted] = int_cache_.try_emplace(key);
  if (inserted) {
    cit->second = ParseInt(it->second);
    if (!cit->second.has_value()) {
      parse_errors_.push_back(key + "=" + it->second + " (int)");
    }
  }
  return cit->second.value_or(def);
}

uint64_t Config::GetUint(const std::string& key, uint64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  auto [cit, inserted] = uint_cache_.try_emplace(key);
  if (inserted) {
    cit->second = ParseUint(it->second);
    if (!cit->second.has_value()) {
      parse_errors_.push_back(key + "=" + it->second + " (uint)");
    }
  }
  return cit->second.value_or(def);
}

double Config::GetDouble(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  auto [cit, inserted] = double_cache_.try_emplace(key);
  if (inserted) {
    cit->second = ParseDouble(it->second);
    if (!cit->second.has_value()) {
      parse_errors_.push_back(key + "=" + it->second + " (double)");
    }
  }
  return cit->second.value_or(def);
}

bool Config::ReportParseErrors() const {
  for (const std::string& e : parse_errors_) {
    std::fprintf(stderr, "bad flag value: %s\n", e.c_str());
  }
  return !parse_errors_.empty();
}

bool Config::GetBool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  auto [cit, inserted] = bool_cache_.try_emplace(key);
  if (inserted) {
    cit->second = ParseBool(it->second);
    if (!cit->second.has_value()) {
      parse_errors_.push_back(key + "=" + it->second + " (bool)");
    }
  }
  return cit->second.value_or(def);
}

}  // namespace casc
