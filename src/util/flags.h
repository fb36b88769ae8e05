// Minimal --key=value command-line parsing for examples and bench binaries.
#pragma once

#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>

namespace e2e {

/// Parses arguments of the form `--key=value` (and bare `--flag`, stored as
/// "true") against the keys the binary accepts. Positional arguments and
/// keys outside `accepted` raise std::invalid_argument naming the argument,
/// so a typo such as `--shard=4` fails instead of running with defaults.
class Flags {
 public:
  Flags(int argc, const char* const* argv,
        std::initializer_list<std::string_view> accepted);

  /// Returns the string value for `key`, or `fallback` if absent.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

  /// Returns the value for `key` parsed as double, or `fallback` if absent.
  /// The whole value must parse: a partial ("1.5x"), empty or out-of-range
  /// value throws std::invalid_argument naming the flag.
  double GetDouble(const std::string& key, double fallback) const;

  /// Returns the value for `key` parsed as int, or `fallback` if absent.
  /// Throws like GetDouble: `--shards=4x` is an error, not 4.
  int GetInt(const std::string& key, int fallback) const;

  /// Returns true when `key` is present and not "false"/"0".
  bool GetBool(const std::string& key, bool fallback) const;

  /// True when the flag was given on the command line.
  bool Has(const std::string& key) const;

 private:
  /// The value given for `key`, or null when absent. Every getter reads
  /// through here; asking for a key outside `accepted` is a bug in the
  /// binary and throws std::logic_error.
  const std::string* Find(const std::string& key) const;

  std::set<std::string> accepted_;
  std::map<std::string, std::string> values_;
};

}  // namespace e2e
