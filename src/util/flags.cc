#include "util/flags.h"

#include <cmath>
#include <stdexcept>
#include <string_view>

namespace e2e {
namespace {

// Parses the whole of `--key`'s value with `parse` (a std::sto* call taking
// the end-position out-parameter). A partial parse ("4x"), an empty value
// and an out-of-range one (`parse` throwing std::out_of_range) all throw
// std::invalid_argument naming the flag.
template <typename Parse>
auto ParseWhole(const std::string& key, const std::string& value,
                const char* what, Parse parse) {
  std::size_t used = 0;
  try {
    const auto parsed = parse(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  }
  throw std::invalid_argument("Flags: --" + key + "='" + value +
                              "' is not " + what);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             std::initializer_list<std::string_view> accepted)
    : accepted_(accepted.begin(), accepted.end()) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      throw std::invalid_argument("Flags: unexpected positional argument '" +
                                  std::string(arg) + "'");
    }
    const std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    const std::string key(body.substr(0, eq));
    if (!accepted_.contains(key)) {
      std::string known;
      for (const std::string& k : accepted_) known += " --" + k;
      throw std::invalid_argument("Flags: unknown flag --" + key +
                                  " (accepted:" +
                                  (known.empty() ? " none" : known) + ")");
    }
    values_[key] = eq == std::string_view::npos
                       ? "true"
                       : std::string(body.substr(eq + 1));
  }
}

const std::string* Flags::Find(const std::string& key) const {
  if (!accepted_.contains(key)) {
    throw std::logic_error("Flags: --" + key + " read but not accepted");
  }
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : *value;
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  return ParseWhole(key, *value, "a number",
                    [](const std::string& s, std::size_t* used) {
                      // std::stod parses "nan" and "inf" whole; no flag
                      // takes a non-finite setting.
                      const double parsed = std::stod(s, used);
                      if (!std::isfinite(parsed)) {
                        throw std::out_of_range("non-finite");
                      }
                      return parsed;
                    });
}

int Flags::GetInt(const std::string& key, int fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  return ParseWhole(key, *value, "an int",
                    [](const std::string& s, std::size_t* used) {
                      return std::stoi(s, used);
                    });
}

bool Flags::GetBool(const std::string& key, bool fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  return *value != "false" && *value != "0";
}

bool Flags::Has(const std::string& key) const { return Find(key) != nullptr; }

}  // namespace e2e
