#include "fault/plan.h"

#include <cctype>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace e2e::fault {
namespace {

[[noreturn]] void Fail(const std::string& clause, const std::string& why) {
  throw std::invalid_argument("FaultPlan: \"" + clause + "\": " + why);
}

// Splits on any of `seps`, dropping empty pieces.
std::vector<std::string> Split(const std::string& text, const char* seps) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (std::strchr(seps, c) != nullptr) {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

// Parses a duration: FLOAT optionally suffixed with ms|s|m (bare = ms).
double ParseDurationMs(const std::string& clause, const std::string& text) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    Fail(clause, "bad duration \"" + text + "\"");
  }
  const std::string unit = text.substr(pos);
  if (unit.empty() || unit == "ms") return value;
  if (unit == "s") return value * 1000.0;
  if (unit == "m") return value * 60000.0;
  Fail(clause, "unknown duration unit \"" + unit + "\"");
}

double ParseFloat(const std::string& clause, const std::string& text) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    Fail(clause, "bad number \"" + text + "\"");
  }
  if (pos != text.size()) Fail(clause, "bad number \"" + text + "\"");
  return value;
}

std::uint64_t ParseU64(const std::string& clause, const std::string& text) {
  std::size_t pos = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (const std::exception&) {
    Fail(clause, "bad integer \"" + text + "\"");
  }
  if (pos != text.size()) Fail(clause, "bad integer \"" + text + "\"");
  return value;
}

// Formats a duration compactly: whole seconds as "Ns", otherwise "Nms".
std::string FormatDuration(double ms) {
  std::ostringstream out;
  if (ms >= 1000.0 && std::fmod(ms, 1000.0) == 0.0) {
    out << ms / 1000.0 << "s";
  } else {
    out << ms << "ms";
  }
  return out.str();
}

// One clause's raw key=value fields before kind-specific interpretation.
struct ClauseFields {
  bool has_t = false;
  double t_start_ms = 0.0;
  bool has_t_end = false;   // t=[a,b] form.
  double t_end_ms = 0.0;
  bool has_for = false;
  double for_ms = 0.0;
  bool has_p = false;
  double p = 0.0;
  bool has_err = false;
  double err = 0.0;
  bool has_delta = false;
  double delta_ms = 0.0;
  bool has_factor = false;
  double factor = 1.0;
  bool has_r = false;
  int r = -1;
  bool has_survivors = false;
  bool has_seed = false;
  std::uint64_t seed = 0;
};

void ParseField(const std::string& clause, const std::string& token,
                ClauseFields& fields) {
  if (token.size() > 1 && token.front() == '+') {
    if (fields.has_delta) Fail(clause, "duplicate delay delta");
    fields.has_delta = true;
    fields.delta_ms = ParseDurationMs(clause, token.substr(1));
    return;
  }
  if (token.size() > 1 && token.front() == 'x' &&
      (std::isdigit(static_cast<unsigned char>(token[1])) != 0 ||
       token[1] == '.')) {
    if (fields.has_factor) Fail(clause, "duplicate xFACTOR");
    fields.has_factor = true;
    fields.factor = ParseFloat(clause, token.substr(1));
    return;
  }
  if (token == "survivors") {
    if (fields.has_survivors) Fail(clause, "duplicate survivors");
    fields.has_survivors = true;
    return;
  }
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    Fail(clause, "unexpected token \"" + token + "\"");
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  if (value.empty()) Fail(clause, "empty value for \"" + key + "\"");
  if (key == "t") {
    if (fields.has_t) Fail(clause, "duplicate t=");
    fields.has_t = true;
    if (value.front() == '[') {
      if (value.back() != ']') Fail(clause, "unterminated t=[...] window");
      const auto parts = Split(value.substr(1, value.size() - 2), ",");
      if (parts.size() != 2) Fail(clause, "t=[...] needs exactly two times");
      fields.t_start_ms = ParseDurationMs(clause, parts[0]);
      fields.t_end_ms = ParseDurationMs(clause, parts[1]);
      fields.has_t_end = true;
    } else {
      fields.t_start_ms = ParseDurationMs(clause, value);
    }
  } else if (key == "for") {
    if (fields.has_for) Fail(clause, "duplicate for=");
    fields.has_for = true;
    fields.for_ms = ParseDurationMs(clause, value);
  } else if (key == "p") {
    if (fields.has_p) Fail(clause, "duplicate p=");
    fields.has_p = true;
    fields.p = ParseFloat(clause, value);
  } else if (key == "err") {
    if (fields.has_err) Fail(clause, "duplicate err=");
    fields.has_err = true;
    fields.err = ParseFloat(clause, value);
  } else if (key == "r") {
    if (fields.has_r) Fail(clause, "duplicate r=");
    fields.has_r = true;
    fields.r = static_cast<int>(ParseU64(clause, value));
  } else if (key == "seed") {
    if (fields.has_seed) Fail(clause, "duplicate seed=");
    fields.has_seed = true;
    fields.seed = ParseU64(clause, value);
  } else {
    Fail(clause, "unknown field \"" + key + "\"");
  }
}

// Applies the parsed window fields to a spec: t= start, then either for=
// (relative length) or t=[a,b] (absolute end). A `then` child without an
// explicit t= starts at `default_start_ms` (its parent's end, or the
// parent's start if the parent is open-ended).
void ApplyWindow(const std::string& clause, const ClauseFields& fields,
                 double default_start_ms, FaultSpec& spec) {
  spec.start_ms = fields.has_t ? fields.t_start_ms : default_start_ms;
  if (fields.has_t_end && fields.has_for) {
    Fail(clause, "t=[a,b] and for= are mutually exclusive");
  }
  if (fields.has_t_end) {
    spec.end_ms = fields.t_end_ms;
  } else if (fields.has_for) {
    spec.end_ms = spec.start_ms + fields.for_ms;
  } else {
    spec.end_ms = kOpenEndMs;
  }
}

FaultSpec ParseClause(const std::string& clause, double default_start_ms) {
  // "ctrl@t=60s" attaches the first field to the target with '@'.
  std::string normalized = clause;
  for (char& c : normalized) {
    if (c == '@') c = ' ';
  }

  const auto tokens = Split(normalized, " \t\n");
  if (tokens.size() < 2) Fail(clause, "expected \"<action> <target> ...\"");
  const std::string& action = tokens[0];
  const std::string& target = tokens[1];

  ClauseFields fields;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    ParseField(clause, tokens[i], fields);
  }

  FaultSpec spec;
  if (action == "crash" && target == "ctrl") {
    spec.kind = FaultKind::kCrashController;
  } else if (action == "drop" && target == "broker") {
    spec.kind = FaultKind::kDropMessages;
    if (!fields.has_p) Fail(clause, "drop broker needs p=");
    spec.probability = fields.p;
    spec.seed = fields.seed;
  } else if (action == "delay" && target == "broker") {
    spec.kind = FaultKind::kDelayMessages;
    if (!fields.has_delta) Fail(clause, "delay broker needs +DURATION");
    spec.delta_ms = fields.delta_ms;
  } else if (action == "delay" && target == "db") {
    spec.kind = FaultKind::kDelayReplica;
    if (!fields.has_delta) Fail(clause, "delay db needs +DURATION");
    spec.delta_ms = fields.delta_ms;
    if (fields.has_r) spec.replica = fields.r;
  } else if (action == "partition" && target == "db") {
    spec.kind = FaultKind::kPartitionReplica;
    if (fields.has_r) spec.replica = fields.r;
  } else if (action == "skew" && target == "est") {
    spec.kind = FaultKind::kSkewEstimator;
    if (!fields.has_err) Fail(clause, "skew est needs err=");
    spec.error = fields.err;
  } else if (action == "overload" && target == "db") {
    spec.kind = FaultKind::kOverloadReplica;
    if (!fields.has_factor) Fail(clause, "overload db needs xFACTOR");
    spec.factor = fields.factor;
    if (fields.has_r) spec.replica = fields.r;
  } else if (action == "overload" && target == "broker") {
    spec.kind = FaultKind::kOverloadBroker;
    if (!fields.has_factor) Fail(clause, "overload broker needs xFACTOR");
    spec.factor = fields.factor;
  } else {
    Fail(clause, "unknown fault \"" + action + " " + target + "\"");
  }

  const bool db_replica_kind = spec.kind == FaultKind::kDelayReplica ||
                               spec.kind == FaultKind::kPartitionReplica ||
                               spec.kind == FaultKind::kOverloadReplica;
  if (fields.has_survivors) {
    if (!db_replica_kind) Fail(clause, "survivors only applies to db faults");
    if (fields.has_r) Fail(clause, "r= and survivors are mutually exclusive");
    spec.replica = kSurvivorsReplica;
  }

  // Fields that do not belong to the chosen kind are spec errors.
  if (fields.has_p && spec.kind != FaultKind::kDropMessages) {
    Fail(clause, "p= only applies to drop broker");
  }
  if (fields.has_seed && spec.kind != FaultKind::kDropMessages) {
    Fail(clause, "seed= only applies to drop broker");
  }
  if (fields.has_err && spec.kind != FaultKind::kSkewEstimator) {
    Fail(clause, "err= only applies to skew est");
  }
  if (fields.has_delta && spec.kind != FaultKind::kDelayMessages &&
      spec.kind != FaultKind::kDelayReplica) {
    Fail(clause, "+DURATION only applies to delay faults");
  }
  if (fields.has_factor && spec.kind != FaultKind::kOverloadReplica &&
      spec.kind != FaultKind::kOverloadBroker) {
    Fail(clause, "xFACTOR only applies to overload faults");
  }
  if (fields.has_r && !db_replica_kind) {
    Fail(clause, "r= only applies to db faults");
  }
  if (spec.kind == FaultKind::kCrashController && !fields.has_for &&
      !fields.has_t_end) {
    Fail(clause, "crash ctrl needs for= or t=[a,b] (the election window)");
  }

  ApplyWindow(clause, fields, default_start_ms, spec);
  return spec;
}

// Splits one ';'-delimited chain on the standalone word "then", preserving
// each sub-clause's text for error messages.
std::vector<std::string> SplitOnThen(const std::string& chain) {
  std::vector<std::string> clauses;
  std::string current;
  for (const std::string& token : Split(chain, " \t\n")) {
    if (token == "then") {
      clauses.push_back(current);
      current.clear();
      continue;
    }
    if (!current.empty()) current.push_back(' ');
    current += token;
  }
  clauses.push_back(current);
  return clauses;
}

}  // namespace

std::string FaultSpec::ToString() const {
  std::ostringstream out;
  switch (kind) {
    case FaultKind::kCrashController:
      out << "crash ctrl";
      break;
    case FaultKind::kDropMessages:
      out << "drop broker p=" << probability;
      if (seed != 0) out << " seed=" << seed;
      break;
    case FaultKind::kDelayMessages:
      out << "delay broker +" << FormatDuration(delta_ms);
      break;
    case FaultKind::kDelayReplica:
      out << "delay db +" << FormatDuration(delta_ms);
      if (replica >= 0) out << " r=" << replica;
      if (replica == kSurvivorsReplica) out << " survivors";
      break;
    case FaultKind::kPartitionReplica:
      out << "partition db";
      if (replica >= 0) out << " r=" << replica;
      if (replica == kSurvivorsReplica) out << " survivors";
      break;
    case FaultKind::kSkewEstimator:
      out << "skew est err=" << error;
      break;
    case FaultKind::kOverloadReplica:
      out << "overload db x" << factor;
      if (replica >= 0) out << " r=" << replica;
      if (replica == kSurvivorsReplica) out << " survivors";
      break;
    case FaultKind::kOverloadBroker:
      out << "overload broker x" << factor;
      break;
  }
  if (end_ms == kOpenEndMs) {
    // `then` children always render their resolved start so the canonical
    // text round-trips even when the start was inherited from the parent.
    if (start_ms != 0.0 || follows >= 0) {
      out << " t=" << FormatDuration(start_ms);
    }
  } else {
    out << " t=[" << FormatDuration(start_ms) << ","
        << FormatDuration(end_ms) << "]";
  }
  return out.str();
}

FaultPlan FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& chain : Split(spec, ";")) {
    // Skip chains that are pure whitespace (trailing ';' is fine).
    if (chain.find_first_not_of(" \t\n") == std::string::npos) continue;
    int parent = -1;
    for (const std::string& clause : SplitOnThen(chain)) {
      double default_start_ms = 0.0;
      if (parent >= 0) {
        const FaultSpec& prior = plan.faults[static_cast<std::size_t>(parent)];
        default_start_ms =
            prior.end_ms == kOpenEndMs ? prior.start_ms : prior.end_ms;
      }
      FaultSpec spec_out = ParseClause(clause, default_start_ms);
      spec_out.follows = parent;
      plan.faults.push_back(spec_out);
      parent = static_cast<int>(plan.faults.size()) - 1;
    }
  }
  plan.Validate();
  return plan;
}

void FaultPlan::Validate() const {
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultSpec& spec = faults[i];
    const std::string text = spec.ToString();
    if (!(spec.start_ms >= 0.0)) Fail(text, "negative start time");
    if (!(spec.end_ms > spec.start_ms)) {
      Fail(text, "window must end after it starts");
    }
    if (spec.kind == FaultKind::kCrashController &&
        spec.end_ms == kOpenEndMs) {
      Fail(text, "crash ctrl needs a finite election window");
    }
    // The value tests are written so that a NaN fails them.
    if (spec.kind == FaultKind::kDropMessages &&
        !(spec.probability >= 0.0 && spec.probability <= 1.0)) {
      Fail(text, "p must be in [0, 1]");
    }
    if (!(std::isfinite(spec.delta_ms) && spec.delta_ms >= 0.0)) {
      Fail(text, "delay must be finite and >= 0");
    }
    if (!(std::isfinite(spec.error) && spec.error >= 0.0)) {
      Fail(text, "err must be finite and >= 0");
    }
    if ((spec.kind == FaultKind::kOverloadReplica ||
         spec.kind == FaultKind::kOverloadBroker) &&
        !(spec.factor >= 1.0)) {
      Fail(text, "overload factor must be >= 1");
    }
    if ((spec.kind == FaultKind::kDelayReplica ||
         spec.kind == FaultKind::kPartitionReplica ||
         spec.kind == FaultKind::kOverloadReplica) &&
        spec.replica < kSurvivorsReplica) {
      Fail(text, "bad replica index");
    }
    // `then` children must immediately follow their parent; this keeps
    // chains contiguous so ToString() can re-join them losslessly.
    if (spec.follows != -1 && spec.follows != static_cast<int>(i) - 1) {
      Fail(text, "follows must reference the immediately preceding clause");
    }
    if (spec.replica == kSurvivorsReplica) {
      if (spec.follows < 0) {
        Fail(text, "survivors needs a `then` parent clause");
      }
      const FaultSpec& parent = faults[static_cast<std::size_t>(spec.follows)];
      const bool parent_targets_replica =
          (parent.kind == FaultKind::kDelayReplica ||
           parent.kind == FaultKind::kPartitionReplica ||
           parent.kind == FaultKind::kOverloadReplica) &&
          parent.replica >= 0;
      if (!parent_targets_replica) {
        Fail(text,
             "survivors needs a parent clause targeting one db replica "
             "(r=N), so the survivor set is well defined");
      }
    }
  }
}

bool FaultPlan::Has(FaultKind kind) const {
  for (const FaultSpec& spec : faults) {
    if (spec.kind == kind) return true;
  }
  return false;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultSpec& spec : faults) {
    if (spec.follows >= 0) {
      out += " then ";
    } else if (!out.empty()) {
      out += "; ";
    }
    out += spec.ToString();
  }
  return out;
}

}  // namespace e2e::fault
