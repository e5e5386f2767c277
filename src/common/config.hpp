// Key-value configuration, BookSim-style: `key = value;` lines with
// comments, parsed from strings or files, with typed accessors and defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace flexrouter {

class Config {
 public:
  Config() = default;

  /// Parse `key = value` pairs separated by ';' or newlines. '#' and '//'
  /// start comments. Values may be quoted strings, numbers, or bare words.
  static Config parse(const std::string& text);
  static Config from_file(const std::string& path);

  void set(const std::string& key, std::string value);
  bool contains(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Typed getters throw ContractViolation on a malformed value (numbers
  /// must be consumed whole). Required variants also throw when missing.
  std::string require_string(const std::string& key) const;
  std::int64_t require_int(const std::string& key) const;
  double require_double(const std::string& key) const;

  /// Comma-separated integer list, e.g. `faults = 0,1,2,4`.
  std::vector<std::int64_t> get_int_list(
      const std::string& key, const std::vector<std::int64_t>& fallback) const;
  /// Comma-separated number list, e.g. `rates = 0.02,0.06`.
  std::vector<double> get_double_list(
      const std::string& key, const std::vector<double>& fallback) const;

  /// Merge `other` over this config (other wins).
  Config overridden_by(const Config& other) const;

  std::vector<std::string> keys() const;
  std::string to_string() const;

 private:
  std::optional<std::string> raw(const std::string& key) const;
  std::map<std::string, std::string> values_;
};

}  // namespace flexrouter
