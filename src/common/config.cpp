#include "common/config.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/assert.hpp"

namespace flexrouter {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string strip_comment(const std::string& line) {
  bool in_quote = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') in_quote = !in_quote;
    if (in_quote) continue;
    if (c == '#') return line.substr(0, i);
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/')
      return line.substr(0, i);
  }
  return line;
}

/// `text` as one whole number: trailing characters ("0.1x", "8abc") are an
/// error, not a silently truncated value.
template <typename T>
T parse_number(const std::string& key, const std::string& text,
               const char* what) {
  std::size_t used = 0;
  T v{};
  try {
    if constexpr (std::is_same_v<T, double>)
      v = std::stod(text, &used);
    else
      v = std::stoll(text, &used);
  } catch (...) {
  }
  FR_REQUIRE_MSG(used != 0 && used == text.size(),
                 "config key '" + key + "' " + what + ": " + text);
  return v;
}

/// Comma-separated numbers; empty items are skipped.
template <typename T>
std::vector<T> parse_list(const std::string& key, const std::string& text,
                          const char* what) {
  std::vector<T> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(parse_number<T>(key, item, what));
  }
  return out;
}

}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::string normalized = text;
  for (char& c : normalized)
    if (c == ';') c = '\n';
  std::istringstream in(normalized);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    line = trim(strip_comment(line));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    FR_REQUIRE_MSG(eq != std::string::npos,
                   "config line " + std::to_string(lineno) +
                       " has no '=': " + line);
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    FR_REQUIRE_MSG(!key.empty(), "empty config key");
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"')
      value = value.substr(1, value.size() - 2);
    cfg.values_[key] = value;
  }
  return cfg;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  FR_REQUIRE_MSG(in.good(), "cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

void Config::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) > 0;
}

std::optional<std::string> Config::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return raw(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = raw(key);
  return v ? parse_number<std::int64_t>(key, *v, "is not an int") : fallback;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = raw(key);
  return v ? parse_number<double>(key, *v, "is not a double") : fallback;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  FR_REQUIRE_MSG(false, "config key '" + key + "' is not a bool: " + *v);
  return fallback;
}

std::string Config::require_string(const std::string& key) const {
  const auto v = raw(key);
  FR_REQUIRE_MSG(v.has_value(), "missing required config key '" + key + "'");
  return *v;
}

std::int64_t Config::require_int(const std::string& key) const {
  FR_REQUIRE_MSG(contains(key), "missing required config key '" + key + "'");
  return get_int(key, 0);
}

double Config::require_double(const std::string& key) const {
  FR_REQUIRE_MSG(contains(key), "missing required config key '" + key + "'");
  return get_double(key, 0.0);
}

std::vector<std::int64_t> Config::get_int_list(
    const std::string& key, const std::vector<std::int64_t>& fallback) const {
  const auto v = raw(key);
  return v ? parse_list<std::int64_t>(key, *v, "has non-int element")
           : fallback;
}

std::vector<double> Config::get_double_list(
    const std::string& key, const std::vector<double>& fallback) const {
  const auto v = raw(key);
  return v ? parse_list<double>(key, *v, "has non-number element")
           : fallback;
}

Config Config::overridden_by(const Config& other) const {
  Config merged = *this;
  for (const auto& [k, v] : other.values_) merged.values_[k] = v;
  return merged;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

std::string Config::to_string() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) os << k << " = " << v << ";\n";
  return os.str();
}

}  // namespace flexrouter
