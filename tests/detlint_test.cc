// Unit tests for tools/detlint: each rule is exercised against a golden
// fixture under tools/detlint/testdata/ (positive, negative, and
// allowlisted cases), plus the allowlist grammar itself. The repo-wide
// gate is the separate `detlint` ctest (label: lint) that runs the binary
// over src/, bench/, and tests/.
#include "detlint.h"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lexer.h"
#include "scope_tree.h"
#include "symbols.h"

namespace {

using detlint::Finding;

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(DETLINT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Finding> ScanFixture(const std::string& name) {
  const std::string original = ReadFixture(name);
  const std::string stripped = detlint::StripCommentsAndStrings(original);
  std::set<std::string> must_check;
  detlint::CollectMustCheck(stripped, &must_check);
  return detlint::ScanSource(name, original, stripped, must_check);
}

using Expected = std::multiset<std::pair<std::string, int>>;

Expected RuleLines(const std::vector<Finding>& findings) {
  Expected out;
  for (const auto& f : findings) out.insert({f.rule, f.line});
  return out;
}

// Some fixtures legitimately fire several rules (e.g. clock_taint.cc also
// trips the line-granular wall-clock rule on its raw ::now() reads); the
// per-rule tests filter to the rule under test.
Expected RuleLines(const std::vector<Finding>& findings,
                   const std::string& rule) {
  Expected out;
  for (const auto& f : findings) {
    if (f.rule == rule) out.insert({f.rule, f.line});
  }
  return out;
}

TEST(StripCommentsAndStrings, BlanksCommentsAndLiterals) {
  const std::string src =
      "int a = 1; // time(nullptr)\n"
      "/* rand() */ const char* s = \"== 1.5\";\n"
      "char c = '\\\"';\n";
  const std::string stripped = detlint::StripCommentsAndStrings(src);
  EXPECT_EQ(stripped.find("time"), std::string::npos);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("1.5"), std::string::npos);
  EXPECT_NE(stripped.find("int a = 1;"), std::string::npos);
  // Layout is preserved: same size, same newlines, so line numbers match.
  EXPECT_EQ(stripped.size(), src.size());
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            static_cast<std::ptrdiff_t>(3));
}

TEST(StripCommentsAndStrings, RawStringsAndBlockComments) {
  const std::string src =
      "auto p = R\"(steady_clock::now())\";\n"
      "/* multi\n   line rand() comment */\n"
      "int x = 2;\n";
  const std::string stripped = detlint::StripCommentsAndStrings(src);
  EXPECT_EQ(stripped.find("steady_clock"), std::string::npos);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int x = 2;"), std::string::npos);
  EXPECT_EQ(stripped.size(), src.size());
}

TEST(DetlintRules, WallClockFixture) {
  EXPECT_EQ(RuleLines(ScanFixture("wall_clock.cc")),
            (Expected{{"wall-clock", 6},
                      {"wall-clock", 11},
                      {"wall-clock", 15}}));
}

TEST(DetlintRules, UnseededRngFixture) {
  EXPECT_EQ(RuleLines(ScanFixture("unseeded_rng.cc")),
            (Expected{{"unseeded-rng", 5},
                      {"unseeded-rng", 6},
                      {"unseeded-rng", 7},
                      {"unseeded-rng", 8},
                      {"unseeded-rng", 9},
                      {"unseeded-rng", 10}}));
}

TEST(DetlintRules, UnorderedIterFixture) {
  // Lines 16/26/54: marker call inside the loop body. Line 64: the v2
  // sink-reachability path — the loop only fills a vector, which reaches
  // SerializeAll() afterwards. The exact multiset also proves the
  // regression case (NegativeUnrelatedRngSameFunction: aggregate-only
  // loop plus an unrelated RNG draw in the same function) stays clean —
  // the retired v1 same-function heuristic used to flag it.
  EXPECT_EQ(RuleLines(ScanFixture("unordered_iter.cc")),
            (Expected{{"unordered-iter", 16},
                      {"unordered-iter", 26},
                      {"unordered-iter", 54},
                      {"unordered-iter", 64}}));
}

TEST(DetlintRules, ParallelSharedWriteFixture) {
  // By-ref accumulator, this-captured member, mutating method on a
  // ref-captured container, named lambda resolved at the call site, and
  // a Submit task; the slotted / task-local / copy-capture / non-pool
  // negatives must stay clean.
  EXPECT_EQ(RuleLines(ScanFixture("parallel_shared_write.cc")),
            (Expected{{"parallel-shared-write", 21},
                      {"parallel-shared-write", 30},
                      {"parallel-shared-write", 42},
                      {"parallel-shared-write", 54},
                      {"parallel-shared-write", 62}}));
}

TEST(DetlintRules, ParallelSharedWritePipelineFixture) {
  // The pipelined ParallelFor(count, produce, fn): fn is the task (an
  // inline lambda, and a named one writing through `this`), and produce,
  // which runs on the calling thread, is exempt — also when fn does not
  // resolve to a lambda.
  EXPECT_EQ(RuleLines(ScanFixture("parallel_shared_write_pipeline.cc")),
            (Expected{{"parallel-shared-write", 19},
                      {"parallel-shared-write", 29}}));
}

TEST(DetlintRules, ClockTaintFixture) {
  const auto findings = ScanFixture("clock_taint.cc");
  // Taint flows through NowWall()'s return into Serialize (line 21) and
  // through a local into ExportMetric (line 28); the injected-Clock and
  // never-reaching negatives stay clean.
  EXPECT_EQ(RuleLines(findings, "clock-taint"),
            (Expected{{"clock-taint", 21}, {"clock-taint", 28}}));
  // The raw ::now() reads still trip the line-granular wall-clock rule.
  EXPECT_EQ(RuleLines(findings, "wall-clock"),
            (Expected{{"wall-clock", 17},
                      {"wall-clock", 27},
                      {"wall-clock", 46}}));
}

TEST(DetlintRules, LockOrderFixture) {
  const auto findings = ScanFixture("lock_order.cc");
  // Both second-acquisition sites of the inverted pair are flagged; the
  // consistent-order, scoped_lock, sequential-scope, and manual-release
  // negatives stay clean.
  EXPECT_EQ(RuleLines(findings),
            (Expected{{"lock-order", 11}, {"lock-order", 19}}));
  for (const auto& f : findings) {
    EXPECT_STREQ(detlint::SeverityName(f.severity), "warning");
  }
}

TEST(DetlintRules, PtrKeyFixture) {
  EXPECT_EQ(RuleLines(ScanFixture("ptr_key.cc")),
            (Expected{{"ptr-key-container", 9}, {"ptr-key-container", 10}}));
}

TEST(DetlintRules, FloatEqFixture) {
  EXPECT_EQ(RuleLines(ScanFixture("float_eq.cc")),
            (Expected{{"float-eq", 3}, {"float-eq", 4}, {"float-eq", 5}}));
}

TEST(DetlintRules, UnstableSortFixture) {
  EXPECT_EQ(RuleLines(ScanFixture("unstable_sort.cc")),
            (Expected{{"unstable-sort", 13},
                      {"unstable-sort", 15},
                      {"unstable-sort", 19}}));
}

TEST(DetlintRules, RawThreadFixture) {
  EXPECT_EQ(RuleLines(ScanFixture("raw_thread.cc")),
            (Expected{{"raw-thread", 6},
                      {"raw-thread", 7},
                      {"raw-thread", 8}}));
}

TEST(DetlintRules, RawThreadFanoutFixture) {
  // The fan-out extension: execution policies, pthread_create, and OpenMP
  // parallel regions are raw-thread findings too (shard fan-out must go
  // through util/thread_pool.h).
  EXPECT_EQ(RuleLines(ScanFixture("raw_thread_fanout.cc")),
            (Expected{{"raw-thread", 10},
                      {"raw-thread", 11},
                      {"raw-thread", 12},
                      {"raw-thread", 15},
                      {"raw-thread", 16}}));
}

TEST(DetlintRules, IgnoredStatusFixture) {
  EXPECT_EQ(RuleLines(ScanFixture("ignored_status.cc")),
            (Expected{{"ignored-status", 9}}));
}

TEST(DetlintRules, CleanFixtureHasNoFindings) {
  EXPECT_TRUE(ScanFixture("clean.cc").empty());
}

TEST(DetlintRules, FindingsCarryExcerptAndSeverity) {
  const auto findings = ScanFixture("wall_clock.cc");
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].excerpt.find("steady_clock::now"), std::string::npos);
  EXPECT_STREQ(detlint::SeverityName(findings[0].severity), "error");
}

TEST(Allowlist, SuppressesJustifiedFindings) {
  auto findings = ScanFixture("allowlisted.cc");
  // One justified case per rule family: wall-clock (x2, the second feeds
  // the clock-taint case), parallel-shared-write, clock-taint, and the
  // two sites of a lock-order inversion.
  ASSERT_EQ(findings.size(), 6u);
  std::vector<Finding> errors;
  auto entries = detlint::ParseAllowlist(
      "allowlist_fixture.txt", ReadFixture("allowlist_fixture.txt"), &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(entries.size(), 5u);
  const auto remaining = detlint::ApplyAllowlist(std::move(findings), entries,
                                                 "allowlist_fixture.txt");
  EXPECT_TRUE(remaining.empty());
  for (const auto& e : entries) {
    EXPECT_TRUE(e.used) << e.rule << "|" << e.pattern;
  }
}

TEST(Allowlist, StaleEntryIsAnError) {
  std::vector<Finding> errors;
  auto entries = detlint::ParseAllowlist(
      "al.txt", "wall-clock|nonexistent.cc|nope|justified but unused\n",
      &errors);
  EXPECT_TRUE(errors.empty());
  const auto remaining = detlint::ApplyAllowlist({}, entries, "al.txt");
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].rule, "stale-allowlist");
  EXPECT_EQ(remaining[0].file, "al.txt");
  EXPECT_EQ(remaining[0].line, 1);
}

TEST(Allowlist, MissingJustificationIsRejected) {
  std::vector<Finding> errors;
  const auto entries =
      detlint::ParseAllowlist("al.txt", "wall-clock|x.cc|now|\n", &errors);
  EXPECT_TRUE(entries.empty());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].rule, "bad-allowlist");
}

TEST(Allowlist, UnknownRuleIsRejected) {
  std::vector<Finding> errors;
  const auto entries = detlint::ParseAllowlist(
      "al.txt", "made-up-rule|x.cc|now|some justification\n", &errors);
  EXPECT_TRUE(entries.empty());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].rule, "bad-allowlist");
}

TEST(Allowlist, CommentsAndBlankLinesIgnored) {
  std::vector<Finding> errors;
  const auto entries = detlint::ParseAllowlist(
      "al.txt", "# header comment\n\n*|x.cc|pattern|wildcard rule is fine\n",
      &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rule, "*");
  EXPECT_EQ(entries[0].line, 3);
}

TEST(Rules, TableListsEveryFixtureRule) {
  std::set<std::string> ids;
  for (const auto& rule : detlint::Rules()) ids.insert(rule.id);
  for (const char* id :
       {"wall-clock", "unseeded-rng", "unordered-iter", "ptr-key-container",
        "float-eq", "ignored-status", "unstable-sort", "raw-thread",
        "parallel-shared-write", "clock-taint", "lock-order",
        "stale-allowlist", "bad-allowlist"}) {
    EXPECT_EQ(ids.count(id), 1u) << id;
  }
}

// --- detlint v2 IR: lexer / scope tree / symbol table ----------------------

TEST(Lexer, DropsPreprocessorDirectivesWithContinuations) {
  // The unbalanced braces live only in directive lines (incl. a
  // backslash continuation); the token stream must not contain them.
  const std::string src =
      "#define NASTY { if (x) {\n"
      "int a;\n"
      "#define TWO \\\n"
      "  more { {\n"
      "int b;\n";
  const auto toks = detlint::Lex(src);
  ASSERT_EQ(toks.size(), 6u);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].line, 2);
  EXPECT_EQ(toks[1].text, "a");
  EXPECT_EQ(toks[1].col, 5);
  EXPECT_EQ(toks[3].text, "int");
  EXPECT_EQ(toks[3].line, 5);
}

TEST(Lexer, MultiCharOperatorsAreSingleTokens) {
  const auto toks = detlint::Lex("a <<= b->*c; x != y;");
  std::vector<std::string> texts;
  for (const auto& t : toks) texts.emplace_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{"a", "<<=", "b", "->*", "c",
                                             ";", "x", "!=", "y", ";"}));
}

TEST(ScopeTree, NestedLambdasNestCorrectly) {
  const auto toks = detlint::Lex(
      "void f() { auto g = [&]() { auto h = [] { return 1; }; }; }");
  const detlint::ScopeTree tree(toks);
  ASSERT_EQ(tree.scopes().size(), 4u);  // Root, f, g, h bodies.
  std::size_t ret = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].Is("return")) ret = i;
  }
  const int innermost = tree.InnermostAt(ret);
  EXPECT_TRUE(tree.IsWithin(innermost, 0));
  EXPECT_EQ(tree.at(innermost).parent >= 0, true);
  // Chain depth: h body -> g body -> f body -> root.
  int depth = 0;
  for (int s = innermost; s != -1; s = tree.at(s).parent) ++depth;
  EXPECT_EQ(depth, 4);
}

TEST(ScopeTree, ToleratesStrayClosers) {
  const auto toks = detlint::Lex("} void f() { int x; } }");
  const detlint::ScopeTree tree(toks);
  ASSERT_EQ(tree.scopes().size(), 2u);
  EXPECT_EQ(tree.at(1).parent, 0);
}

TEST(SymbolTable, MacroBracesCannotCorruptLookup) {
  // A macro body with an unbalanced '{' must not shift scopes: x still
  // resolves to f's body.
  const std::string src =
      "#define OPEN {\n"
      "void f() { int x = 1; }\n";
  const auto toks = detlint::Lex(src);
  const detlint::ScopeTree tree(toks);
  const detlint::SymbolTable sym(toks, tree);
  ASSERT_EQ(sym.functions().size(), 1u);
  const detlint::VarDecl* x =
      sym.Lookup(sym.functions()[0].body_scope, "x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->scope, sym.functions()[0].body_scope);
}

TEST(SymbolTable, RawStringBracesAreInvisible) {
  const std::string original =
      "const char* k = R\"({ not a scope; [not, a, capture] })\";\n"
      "void f() { int y = 2; }\n";
  const std::string stripped = detlint::StripCommentsAndStrings(original);
  const auto toks = detlint::Lex(stripped);
  const detlint::ScopeTree tree(toks);
  const detlint::SymbolTable sym(toks, tree);
  ASSERT_EQ(sym.functions().size(), 1u);
  EXPECT_EQ(sym.functions()[0].name, "f");
  EXPECT_NE(sym.Lookup(sym.functions()[0].body_scope, "y"), nullptr);
}

TEST(SymbolTable, NestedLambdaCapturesAndNaming) {
  const auto toks = detlint::Lex(
      "void f() {"
      "  int n = 0;"
      "  auto outer = [&](int i) {"
      "    auto inner = [n](int j) mutable { n += j; };"
      "    inner(i);"
      "  };"
      "  outer(1);"
      "}");
  const detlint::ScopeTree tree(toks);
  const detlint::SymbolTable sym(toks, tree);
  const detlint::LambdaInfo* outer = sym.LambdaNamed("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_TRUE(outer->default_ref);
  ASSERT_EQ(outer->params.size(), 1u);
  EXPECT_EQ(outer->params[0].name, "i");
  const detlint::LambdaInfo* inner = sym.LambdaNamed("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_FALSE(inner->default_ref);
  EXPECT_EQ(inner->copy_captures.count("n"), 1u);
  // Lambdas register as functions too, so the flow graph can chase them.
  EXPECT_GE(sym.functions().size(), 3u);
}

TEST(SymbolTable, StructuredBindingsDeclareAllNames) {
  const auto toks =
      detlint::Lex("void f() { auto [a, b] = make(); use(a, b); }");
  const detlint::ScopeTree tree(toks);
  const detlint::SymbolTable sym(toks, tree);
  ASSERT_EQ(sym.functions().size(), 1u);
  const int body = sym.functions()[0].body_scope;
  EXPECT_NE(sym.Lookup(body, "a"), nullptr);
  EXPECT_NE(sym.Lookup(body, "b"), nullptr);
}

// --- output formats --------------------------------------------------------

TEST(Output, FindingsCarryColumns) {
  for (const auto& f : ScanFixture("parallel_shared_write.cc")) {
    EXPECT_GT(f.col, 0);
  }
  for (const auto& f : ScanFixture("wall_clock.cc")) {
    EXPECT_GT(f.col, 0);
  }
}

TEST(Output, FormatFindingIncludesColumn) {
  const Finding f{"a.cc", 3, 7, "clock-taint", detlint::Severity::kError,
                  "msg", "excerpt"};
  EXPECT_EQ(detlint::FormatFinding(f),
            "a.cc:3:7: error: [clock-taint] msg\n    | excerpt");
}

TEST(Output, JsonDocumentIsStableAndEscaped) {
  std::vector<Finding> fs;
  fs.push_back(Finding{"a.cc", 3, 7, "clock-taint", detlint::Severity::kError,
                       "msg with \"quotes\"", "tab\there"});
  EXPECT_EQ(
      detlint::FormatFindingsJson(fs),
      "{\"schema\":\"e2e.detlint.v1\",\"findings\":["
      "{\"file\":\"a.cc\",\"line\":3,\"col\":7,\"severity\":\"error\","
      "\"rule\":\"clock-taint\",\"message\":\"msg with \\\"quotes\\\"\","
      "\"excerpt\":\"tab\\there\"}]}\n");
  EXPECT_EQ(detlint::FormatFindingsJson({}),
            "{\"schema\":\"e2e.detlint.v1\",\"findings\":[]}\n");
}

}  // namespace
