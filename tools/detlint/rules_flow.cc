#include "rules_flow.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "flow.h"
#include "lexer.h"
#include "scope_tree.h"
#include "symbols.h"

namespace detlint {
namespace {

constexpr char kParallelSharedWrite[] = "parallel-shared-write";
constexpr char kClockTaint[] = "clock-taint";
constexpr char kUnorderedIter[] = "unordered-iter";
constexpr char kLockOrder[] = "lock-order";

std::string Trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return std::string(s.substr(b, e - b));
}

std::string LineAt(std::string_view original, int line) {
  int current = 1;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= original.size(); ++i) {
    if (i == original.size() || original[i] == '\n') {
      if (current == line) return Trim(original.substr(start, i - start));
      start = i + 1;
      ++current;
    }
  }
  return "";
}

void Add(std::vector<Finding>* out, const std::string& path,
         std::string_view original, const Token& at, const char* rule,
         Severity severity, std::string message) {
  Finding f;
  f.file = path;
  f.line = at.line;
  f.col = at.col;
  f.rule = rule;
  f.severity = severity;
  f.message = std::move(message);
  f.excerpt = LineAt(original, at.line);
  out->push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// Lvalue-path parsing shared by the write detectors.

struct LvaluePath {
  std::size_t begin = 0;  ///< First token of the path.
  std::size_t end = 0;    ///< One past the last token.
  std::string root;       ///< Leftmost identifier ("this" for this->x).
  bool valid = false;
};

/// Parses the lvalue path that ends just before token `end`
/// (`a.b[i].c` for `a.b[i].c = ...`), walking backwards.
LvaluePath PathEndingBefore(const std::vector<Token>& toks, std::size_t end) {
  LvaluePath path;
  path.end = end;
  path.begin = end;
  bool need_operand = true;
  std::size_t p = end;
  while (p > 0) {
    const Token& t = toks[p - 1];
    if (need_operand) {
      if (t.Is("]")) {
        int depth = 0;
        while (p > 0) {
          const Token& u = toks[p - 1];
          if (u.Is("]")) ++depth;
          if (u.Is("[")) {
            --depth;
            if (depth == 0) break;
          }
          --p;
        }
        if (p == 0) return path;
        --p;  // Past the '['.
        path.begin = p;
        continue;  // The subscripted operand precedes the '['.
      }
      if (t.Is("this") || (t.IsIdent() && !IsKeyword(t.text))) {
        path.root = std::string(t.text);
        path.begin = p - 1;
        --p;
        need_operand = false;
        continue;
      }
      break;  // `f() = ...` etc.: nothing path-like ends here.
    }
    if (t.Is(".") || t.Is("->")) {
      --p;
      need_operand = true;
      continue;
    }
    break;
  }
  path.valid = !path.root.empty();
  return path;
}

/// Parses the lvalue path starting at token `start` (`++counts[key]`),
/// walking forwards.
LvaluePath PathStartingAt(const std::vector<Token>& toks, std::size_t start) {
  LvaluePath path;
  path.begin = start;
  path.end = start;
  if (start >= toks.size()) return path;
  const Token& t = toks[start];
  if (!(t.Is("this") || (t.IsIdent() && !IsKeyword(t.text)))) return path;
  path.root = std::string(t.text);
  std::size_t p = start + 1;
  while (p < toks.size()) {
    if ((toks[p].Is(".") || toks[p].Is("->")) && p + 1 < toks.size() &&
        toks[p + 1].IsIdent()) {
      p += 2;
      continue;
    }
    if (toks[p].Is("[")) {
      p = MatchForward(toks, p);
      continue;
    }
    break;
  }
  path.end = p;
  path.valid = true;
  return path;
}

/// True when the path tokens contain a subscript `[...]` mentioning
/// `index_name` — the per-index-slot pattern ParallelFor sanctions.
bool SubscriptIndexedBy(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end, std::string_view index_name) {
  if (index_name.empty()) return false;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (!toks[i].Is("[")) continue;
    const std::size_t close = MatchForward(toks, i);
    for (std::size_t j = i + 1; j + 1 < close; ++j) {
      if (toks[j].Is(index_name)) return true;
    }
  }
  return false;
}

const std::set<std::string_view>& MutatingMethods() {
  static const std::set<std::string_view> kNames = {
      "push_back", "emplace_back", "pop_back", "clear",  "insert",
      "emplace",   "erase",        "push",     "pop",    "resize",
      "reserve",   "assign",       "append",   "swap",   "Add",
      "Increment", "Observe",      "Record",   "Merge",  "Accumulate",
      "Set",       "Append",       "Update",
  };
  return kNames;
}

struct WriteEvent {
  std::size_t tok = 0;  ///< Anchor: the operator or method-name token.
  LvaluePath path;
};

/// Collects writes in token range [begin, end): assignments, ++/--, and
/// mutating method calls. Lambda capture/parameter lists inside the
/// range are skipped so init-captures (`[x = f()]`) don't read as
/// assignments.
std::vector<WriteEvent> CollectWrites(const std::vector<Token>& toks,
                                      std::size_t begin, std::size_t end,
                                      const SymbolTable& sym) {
  std::vector<std::pair<std::size_t, std::size_t>> skip;
  for (const LambdaInfo& lam : sym.lambdas()) {
    if (lam.intro_tok >= begin && lam.intro_tok < end &&
        lam.body_open_tok > lam.intro_tok) {
      skip.emplace_back(lam.intro_tok, lam.body_open_tok);
    }
  }
  const auto skipped = [&](std::size_t i) {
    for (const auto& [b, e] : skip) {
      if (i >= b && i <= e) return true;
    }
    return false;
  };
  std::vector<WriteEvent> writes;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (skipped(i)) continue;
    const Token& t = toks[i];
    if (IsAssignOp(t.text)) {
      WriteEvent w;
      w.tok = i;
      w.path = PathEndingBefore(toks, i);
      if (w.path.valid) writes.push_back(std::move(w));
      continue;
    }
    if (t.Is("++") || t.Is("--")) {
      WriteEvent w;
      w.tok = i;
      if (i > begin && (toks[i - 1].IsIdent() || toks[i - 1].Is("]"))) {
        w.path = PathEndingBefore(toks, i);  // Postfix.
      } else {
        w.path = PathStartingAt(toks, i + 1);  // Prefix.
      }
      if (w.path.valid) writes.push_back(std::move(w));
      continue;
    }
    if (t.IsIdent() && MutatingMethods().count(t.text) != 0 &&
        i + 1 < toks.size() && toks[i + 1].Is("(") && i > 0 &&
        (toks[i - 1].Is(".") || toks[i - 1].Is("->"))) {
      WriteEvent w;
      w.tok = i;
      w.path = PathEndingBefore(toks, i - 1);  // The receiver path.
      if (w.path.valid) writes.push_back(std::move(w));
      continue;
    }
  }
  return writes;
}

// ---------------------------------------------------------------------------
// Rule: parallel-shared-write.

void ScanParallelSharedWrite(const std::string& path,
                             std::string_view original,
                             const std::vector<Token>& toks,
                             const ScopeTree& tree, const SymbolTable& sym,
                             const std::vector<CallSite>& calls,
                             std::vector<Finding>* out) {
  for (const CallSite& c : calls) {
    const bool is_pf = c.callee == "ParallelFor";
    const bool is_submit = c.callee == "Submit";
    if (!is_pf && !is_submit) continue;
    if (is_submit) {
      // Submit exists on non-pool types too (e.g. the deterministic
      // event-loop server). Only analyze receivers that are provably a
      // thread pool: named like one, or declared with a ThreadPool type.
      if (c.receiver.empty()) continue;
      bool pool = c.receiver.find("pool") != std::string::npos ||
                  c.receiver.find("Pool") != std::string::npos;
      if (!pool) {
        const VarDecl* d = sym.Lookup(tree.InnermostAt(c.name_tok), c.receiver);
        pool = d != nullptr && d->type.find("ThreadPool") != std::string::npos;
      }
      if (!pool) continue;
    }
    // The task is the last argument: fn in ParallelFor(count, fn) and in
    // the pipelined ParallelFor(count, produce, fn), the task in Submit.
    // produce runs on the calling thread, one index after another, so its
    // writes cannot race: it is never analysed, even when fn does not
    // resolve. Resolve the task: an inline lambda, or an identifier a
    // lambda was assigned to earlier in the TU.
    const auto pieces = SplitTopLevelCommas(toks, c.args_begin, c.args_end);
    if (pieces.empty()) continue;
    const auto [task_begin, task_end] = pieces.back();
    const LambdaInfo* lam = nullptr;
    if (task_begin < task_end && toks[task_begin].Is("[")) {
      lam = sym.LambdaAtIntro(task_begin);
    } else if (task_end == task_begin + 1 && toks[task_begin].IsIdent()) {
      lam = sym.LambdaNamed(toks[task_begin].text);
    }
    if (lam == nullptr || lam->body_scope < 0) continue;
    // The induction variable is the lambda's index parameter; Submit
    // tasks have none, so every shared write there is unslotted.
    const std::string induction =
        (is_pf && !lam->params.empty()) ? lam->params[0].name : "";
    const Scope& body = tree.at(lam->body_scope);
    std::set<std::string> reported;  // One finding per variable per task.
    for (const WriteEvent& w :
         CollectWrites(toks, body.open_tok + 1, body.close_tok, sym)) {
      std::string how;
      if (w.path.root == "this") {
        if (lam->captures_this_copy) continue;
        how = "through the captured `this` pointer";
      } else {
        const VarDecl* d = sym.Lookup(tree.InnermostAt(w.tok), w.path.root);
        if (d != nullptr && tree.IsWithin(d->scope, lam->body_scope)) {
          continue;  // Task-local variable or parameter: private per call.
        }
        if (lam->copy_captures.count(w.path.root) != 0) continue;
        if (lam->ref_captures.count(w.path.root) != 0) {
          how = "by reference";
        } else if (lam->default_ref) {
          how = "by reference (default [&] capture)";
        } else if (lam->default_copy) {
          continue;  // Copied into the closure: private per task object.
        } else if (lam->captures_this || lam->captures_this_copy) {
          if (lam->captures_this_copy) continue;
          how = "as a member through the captured `this`";
        } else {
          how = "as a global or out-of-scope name";
        }
      }
      if (SubscriptIndexedBy(toks, w.path.begin, w.path.end, induction)) {
        continue;  // Per-index slot (out[i] = ...): the sanctioned shape.
      }
      if (!reported.insert(w.path.root).second) continue;
      std::string msg = "task lambda passed to " +
                        (is_pf ? std::string("ParallelFor")
                               : std::string("Submit")) +
                        " writes '" + w.path.root + "' captured " + how;
      if (is_pf) {
        msg += induction.empty()
                   ? " with no index parameter to slot by"
                   : " without indexing by the induction variable '" +
                         induction + "'";
        msg +=
            "; concurrent iterations race and scheduling order reaches the "
            "merged bytes — write only per-index slots (out[" +
            (induction.empty() ? std::string("i") : induction) +
            "] = ...) and reduce after the barrier";
      } else {
        msg +=
            "; Submit tasks run concurrently, so the write races and its "
            "timing depends on scheduling — return the value and reduce "
            "after Wait(), or use a per-task slot";
      }
      Add(out, path, original, toks[w.tok], kParallelSharedWrite,
          Severity::kError, std::move(msg));
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: clock-taint.

bool IsClockSource(const std::vector<Token>& toks, std::size_t i) {
  const Token& t = toks[i];
  if (!t.IsIdent()) return false;
  if (t.Is("RealClock")) return true;
  if ((t.Is("system_clock") || t.Is("steady_clock") ||
       t.Is("high_resolution_clock")) &&
      i + 3 < toks.size() && toks[i + 1].Is("::") && toks[i + 2].Is("now") &&
      toks[i + 3].Is("(")) {
    return true;
  }
  if ((t.Is("time") || t.Is("clock") || t.Is("clock_gettime") ||
       t.Is("gettimeofday") || t.Is("localtime") || t.Is("gmtime") ||
       t.Is("ctime") || t.Is("timespec_get")) &&
      i + 1 < toks.size() && toks[i + 1].Is("(") &&
      !(i > 0 && (toks[i - 1].Is(".") || toks[i - 1].Is("->")))) {
    return true;
  }
  return false;
}

bool IsSerializationSink(const CallSite& c) {
  const std::string& n = c.callee;
  return n.rfind("Serialize", 0) == 0 || n.rfind("Snapshot", 0) == 0 ||
         n.rfind("Export", 0) == 0 || n.rfind("Publish", 0) == 0;
}

void ScanClockTaint(const std::string& path, std::string_view original,
                    const std::vector<Token>& toks, const SymbolTable& sym,
                    const std::vector<CallSite>& calls,
                    std::vector<Finding>* out) {
  TaintSpec spec;
  spec.is_source_tok = IsClockSource;
  spec.is_sink = IsSerializationSink;
  std::set<std::size_t> seen;
  for (const TaintHit& h : PropagateTaint(toks, sym, calls, spec)) {
    if (!seen.insert(h.sink_tok).second) continue;
    const Token& sink = toks[h.sink_tok];
    const Token& origin = toks[h.origin_tok];
    Add(out, path, original, sink, kClockTaint, Severity::kError,
        "value derived from a wall-clock read (line " +
            std::to_string(origin.line) + ") reaches '" +
            std::string(sink.text) +
            "' — real time never matches across runs, so these bytes break "
            "byte-exact replay; plumb an injected Clock (src/util/clock.h) "
            "or keep wall-clock values out of serialized/exported state");
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iter (v2: marker-in-body or sink-reachability).

bool IsRngMarkerCall(const CallSite& c) {
  static const std::set<std::string_view> kDraws = {
      "NextU64",      "Uniform", "Normal",          "Bernoulli",
      "Categorical",  "Shuffle", "ExponentialMean", "Poisson",
  };
  if (kDraws.count(c.callee) != 0) return true;
  const std::string& r = c.receiver;
  return r == "rng" || r == "rng_" || r == "engine" || r == "engine_";
}

bool IsOrderSink(const CallSite& c) {
  return IsRngMarkerCall(c) || IsSerializationSink(c);
}

void ScanUnorderedIterFlow(const std::string& path, std::string_view original,
                           const std::vector<Token>& toks,
                           const ScopeTree& tree, const SymbolTable& sym,
                           const std::vector<CallSite>& calls,
                           std::vector<Finding>* out) {
  // Names declared with an unordered container type anywhere in the TU.
  std::set<std::string> unordered_names;
  for (const VarDecl& v : sym.vars()) {
    if (v.type.find("unordered_") != std::string::npos) {
      unordered_names.insert(v.name);
    }
  }
  std::map<std::size_t, const CallSite*> call_at;
  for (const CallSite& c : calls) call_at.emplace(c.name_tok, &c);

  std::vector<TaintSeed> seeds;
  std::set<std::size_t> direct;  // `for` tokens already reported.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].Is("for") || !toks[i + 1].Is("(")) continue;
    const std::size_t pend = MatchForward(toks, i + 1);
    if (pend >= toks.size()) continue;
    // Find the top-level ':' of a range-for (a ';' means a classic loop).
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = i + 2; j + 1 < pend; ++j) {
      if (toks[j].Is("(") || toks[j].Is("[") || toks[j].Is("{")) ++depth;
      if (toks[j].Is(")") || toks[j].Is("]") || toks[j].Is("}")) --depth;
      if (depth != 0) continue;
      if (toks[j].Is(";")) break;
      if (toks[j].Is(":")) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    // Is the range operand an unordered container?
    bool unordered = false;
    for (std::size_t j = colon + 1; j + 1 < pend && !unordered; ++j) {
      if (!toks[j].IsIdent()) continue;
      if (toks[j].text.find("unordered_") != std::string::npos ||
          unordered_names.count(std::string(toks[j].text)) != 0) {
        unordered = true;
      }
    }
    if (!unordered) continue;
    // Loop variable names (plain or structured binding).
    std::set<std::string> loop_vars;
    std::string last_ident;
    for (std::size_t j = i + 2; j < colon; ++j) {
      if (toks[j].Is("[")) {
        const std::size_t close = MatchForward(toks, j);
        for (std::size_t k = j + 1; k + 1 < close; ++k) {
          if (toks[k].IsIdent() && !IsKeyword(toks[k].text)) {
            loop_vars.insert(std::string(toks[k].text));
          }
        }
        j = close > j ? close - 1 : j;
        continue;
      }
      if (toks[j].IsIdent() && !IsKeyword(toks[j].text)) {
        last_ident = std::string(toks[j].text);
      }
    }
    if (!last_ident.empty()) loop_vars.insert(last_ident);
    // Body token range and scope.
    std::size_t body_begin = pend;
    std::size_t body_end = pend;
    int body_scope = -1;
    if (pend < toks.size() && toks[pend].Is("{")) {
      body_scope = tree.ScopeOpenedAt(pend);
      body_begin = pend + 1;
      body_end =
          body_scope >= 0 ? tree.at(body_scope).close_tok : toks.size();
    } else {
      int d = 0;
      for (std::size_t j = pend; j < toks.size(); ++j) {
        if (toks[j].Is("(") || toks[j].Is("[") || toks[j].Is("{")) ++d;
        if (toks[j].Is(")") || toks[j].Is("]") || toks[j].Is("}")) --d;
        if (d == 0 && toks[j].Is(";")) {
          body_end = j;
          break;
        }
      }
    }
    // Direct hit: an RNG draw or serialization call inside the body means
    // hash order reaches the bytes right here.
    bool flagged = false;
    for (std::size_t j = body_begin; j < body_end; ++j) {
      const auto it = call_at.find(j);
      if (it == call_at.end() || !IsOrderSink(*it->second)) continue;
      if (direct.insert(i).second) {
        Add(out, path, original, toks[i], kUnorderedIter, Severity::kError,
            "range-for over an unordered container feeds '" +
                it->second->callee +
                "' inside the loop body — hash iteration order is "
                "implementation-defined, so the result depends on it; "
                "iterate sorted keys or use std::map/std::set");
      }
      flagged = true;
      break;
    }
    if (flagged) continue;
    // Otherwise seed every variable the body writes that outlives the
    // loop: if hash-order data flows into one and later reaches an RNG
    // draw or serialization call, the taint engine reports it here.
    const int func = sym.FunctionAt(i);
    for (const WriteEvent& w :
         CollectWrites(toks, body_begin, body_end, sym)) {
      if (loop_vars.count(w.path.root) != 0) continue;
      const VarDecl* d = sym.Lookup(tree.InnermostAt(w.tok), w.path.root);
      if (d != nullptr && body_scope >= 0 &&
          tree.IsWithin(d->scope, body_scope)) {
        continue;  // Dies each iteration.
      }
      seeds.push_back(TaintSeed{func, w.path.root, i});
    }
  }
  if (seeds.empty()) return;
  TaintSpec spec;
  spec.is_sink = IsOrderSink;
  spec.seeds = std::move(seeds);
  std::set<std::size_t> seen;
  for (const TaintHit& h : PropagateTaint(toks, sym, calls, spec)) {
    if (direct.count(h.origin_tok) != 0) continue;
    if (!seen.insert(h.origin_tok).second) continue;
    const Token& origin = toks[h.origin_tok];
    const Token& sink = toks[h.sink_tok];
    Add(out, path, original, origin, kUnorderedIter, Severity::kError,
        "range-for over an unordered container writes state that reaches '" +
            std::string(sink.text) + "' (line " + std::to_string(sink.line) +
            ") — hash iteration order is implementation-defined, so those "
            "bytes depend on it; iterate sorted keys or use "
            "std::map/std::set");
  }
}

// ---------------------------------------------------------------------------
// Rule: lock-order.

struct Acquisition {
  std::string name;         ///< Mutex (or lock object) identifier.
  std::size_t tok = 0;      ///< Acquisition site.
  std::size_t release = 0;  ///< Held until this token index.
};

/// Last identifier in [begin, end) — `this->mu_a` and `*mu` both name the
/// mutex by their final identifier.
std::string LastIdentIn(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end) {
  std::string name;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].IsIdent() && !IsKeyword(toks[i].text)) {
      name = std::string(toks[i].text);
    }
  }
  return name;
}

std::size_t SkipAnglesFwd(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].Is("<")) ++depth;
    if (toks[i].Is(">")) --depth;
    if (toks[i].Is(">>")) depth -= 2;
    if (depth <= 0) return i + 1;
  }
  return toks.size();
}

void ScanLockOrder(const std::string& path, std::string_view original,
                   const std::vector<Token>& toks, const SymbolTable& sym,
                   std::vector<Finding>* out) {
  // Tokens owned by each function, nested lambdas excluded: a guard in an
  // enclosing function is not provably held when a lambda body runs.
  std::vector<std::vector<std::size_t>> owned(sym.functions().size());
  for (std::size_t t = 0; t < toks.size(); ++t) {
    const int f = sym.FunctionAt(t);
    if (f >= 0) owned[static_cast<std::size_t>(f)].push_back(t);
  }
  // (first, second) acquisition order -> second-acquisition sites.
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>>
      orders;
  for (const std::vector<std::size_t>& body : owned) {
    std::vector<Acquisition> acqs;
    for (std::size_t k = 0; k < body.size(); ++k) {
      const std::size_t t = body[k];
      const Token& tok = toks[t];
      if (!tok.IsIdent()) continue;
      const bool guard = tok.Is("lock_guard") || tok.Is("unique_lock") ||
                         tok.Is("shared_lock") || tok.Is("scoped_lock");
      if (guard) {
        std::size_t j = t + 1;
        if (j < toks.size() && toks[j].Is("<")) j = SkipAnglesFwd(toks, j);
        if (j < toks.size() && toks[j].IsIdent()) ++j;  // Guard var name.
        if (j >= toks.size() || !toks[j].Is("(")) continue;
        const std::size_t close = MatchForward(toks, j);
        const auto pieces = SplitTopLevelCommas(toks, j + 1, close - 1);
        if (pieces.empty()) continue;
        if (tok.Is("scoped_lock") && pieces.size() > 1) {
          continue;  // std::scoped_lock(a, b) orders via std::lock: safe.
        }
        Acquisition a;
        a.name = LastIdentIn(toks, pieces[0].first, pieces[0].second);
        a.tok = t;
        // RAII: held until the end of the enclosing statement's scope.
        std::size_t release = body.empty() ? t : body.back();
        int d = 0;
        for (std::size_t m = k + 1; m < body.size(); ++m) {
          const Token& u = toks[body[m]];
          if (u.Is("{")) ++d;
          if (u.Is("}")) {
            --d;
            if (d < 0) {
              release = body[m];
              break;
            }
          }
        }
        a.release = release;
        if (!a.name.empty()) acqs.push_back(std::move(a));
        continue;
      }
      if (tok.Is("lock") && t > 0 &&
          (toks[t - 1].Is(".") || toks[t - 1].Is("->")) &&
          t + 1 < toks.size() && toks[t + 1].Is("(") && t >= 2 &&
          toks[t - 2].IsIdent()) {
        Acquisition a;
        a.name = std::string(toks[t - 2].text);
        a.tok = t;
        a.release = body.empty() ? t : body.back();
        for (std::size_t m = k + 1; m < body.size(); ++m) {
          const std::size_t u = body[m];
          if (toks[u].Is("unlock") && u >= 2 &&
              (toks[u - 1].Is(".") || toks[u - 1].Is("->")) &&
              toks[u - 2].Is(a.name)) {
            a.release = u;
            break;
          }
        }
        acqs.push_back(std::move(a));
      }
    }
    for (std::size_t x = 0; x < acqs.size(); ++x) {
      for (std::size_t y = x + 1; y < acqs.size(); ++y) {
        if (acqs[y].tok >= acqs[x].release) continue;  // Not nested.
        if (acqs[x].name == acqs[y].name) continue;
        orders[{acqs[x].name, acqs[y].name}].push_back(acqs[y].tok);
      }
    }
  }
  std::set<std::size_t> reported;
  for (const auto& [pair, sites] : orders) {
    const auto inverse = orders.find({pair.second, pair.first});
    if (inverse == orders.end()) continue;
    for (const std::size_t site : sites) {
      if (!reported.insert(site).second) continue;
      const Token& at = toks[site];
      const Token& other = toks[inverse->second.front()];
      Add(out, path, original, at, kLockOrder, Severity::kWarning,
          "mutex '" + pair.second + "' is acquired while '" + pair.first +
              "' is held, but the opposite order occurs at line " +
              std::to_string(other.line) +
              " — inconsistent lock order can deadlock and makes timing "
              "scheduling-dependent; pick one global order or use "
              "std::scoped_lock(a, b)");
    }
  }
}

}  // namespace

void RunFlowRules(const std::string& path, std::string_view original,
                  std::string_view stripped, std::vector<Finding>* out) {
  const std::vector<Token> toks = Lex(stripped);
  const ScopeTree tree(toks);
  const SymbolTable sym(toks, tree);
  const std::vector<CallSite> calls = CollectCallSites(toks, sym);
  ScanParallelSharedWrite(path, original, toks, tree, sym, calls, out);
  ScanClockTaint(path, original, toks, sym, calls, out);
  ScanUnorderedIterFlow(path, original, toks, tree, sym, calls, out);
  ScanLockOrder(path, original, toks, sym, out);
}

}  // namespace detlint
