// keylint2 selftest: unit tests over the lexer/parser/CFG/annotation
// binding, the fixture battery (every known-bad fixture yields exactly its
// expected findings, every known-good fixture is clean), output-format
// sanity, and a mutation loop that feeds the analyzer damaged copies of
// the fixtures and of the tree's own sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/report.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
using namespace keyguard::lint;

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// `// expect: KLxxx` markers: (check, line) pairs a fixture promises.
std::set<std::pair<std::string, int>> expected_findings(
    const std::string& source) {
  std::set<std::pair<std::string, int>> out;
  std::istringstream in(source);
  std::string line;
  int ln = 0;
  while (std::getline(in, line)) {
    ++ln;
    const auto pos = line.find("expect: KL");
    if (pos != std::string::npos) {
      out.insert({line.substr(pos + 8, 5), ln});
    }
  }
  return out;
}

std::set<std::pair<std::string, int>> actual_findings(
    const FileCheckResult& res) {
  std::set<std::pair<std::string, int>> out;
  for (const Finding& f : res.findings) out.insert({f.check, f.line});
  return out;
}

fs::path fixture_dir() { return fs::path(LINT_FIXTURE_DIR); }

}  // namespace

// ---------------------------------------------------------------------------
// Lexer.

TEST(Tokenize, CommentsAndStrings) {
  const TokenStream ts = tokenize(
      "int a = 1;  // trailing note\n"
      "// keylint: allow(raw-free) — own line\n"
      "const char* s = \"PEM read buffer\";\n");
  ASSERT_EQ(ts.comments.size(), 2u);
  EXPECT_FALSE(ts.comments[0].own_line);
  EXPECT_TRUE(ts.comments[1].own_line);
  EXPECT_EQ(ts.comments[1].line, 2);
  bool saw_label = false;
  for (const Token& t : ts.tokens) {
    if (t.kind == TokKind::kString && t.text == "PEM read buffer") {
      saw_label = true;
      EXPECT_EQ(t.line, 3);
    }
  }
  EXPECT_TRUE(saw_label);
}

TEST(Tokenize, BlockCommentArgLabelIsDropped) {
  // `/*mlocked=*/false` must lex to a bare `false` so KL104 can read the
  // literal lock flag.
  const TokenStream ts = tokenize("f(p, n, /*mlocked=*/false, \"key vault\");");
  bool saw_false = false;
  for (const Token& t : ts.tokens) {
    if (t.ident("false")) saw_false = true;
  }
  EXPECT_TRUE(saw_false);
  EXPECT_TRUE(ts.comments.empty());  // block comments are not annotations
}

TEST(Tokenize, PreprocessorSkipped) {
  const TokenStream ts = tokenize("#include <x>\n#define A 1\nint b;\n");
  for (const Token& t : ts.tokens) {
    EXPECT_NE(t.text, "include");
    EXPECT_NE(t.text, "define");
  }
}

// ---------------------------------------------------------------------------
// Parser.

TEST(Parse, FindsMemberFunctionInsideNamespaceAndClass) {
  const TokenStream ts = tokenize(
      "namespace a {\n"
      "class B {\n"
      " public:\n"
      "  int get() { return 1; }\n"
      "};\n"
      "int B_helper(int x) {\n"
      "  if (x) { return 2; }\n"
      "  return 3;\n"
      "}\n"
      "}  // namespace a\n");
  const auto fns = parse_functions(ts);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].name, "get");
  EXPECT_EQ(fns[1].name, "B_helper");
  ASSERT_EQ(fns[1].body.size(), 2u);
  EXPECT_EQ(fns[1].body[0].kind, StmtKind::kIf);
  EXPECT_EQ(fns[1].body[1].kind, StmtKind::kReturn);
}

TEST(Parse, QualifiedNameAndMultiLineStatementSpan) {
  const TokenStream ts = tokenize(
      "void Keystore::evict() {\n"
      "  run(a,\n"
      "      b,\n"
      "      c);\n"
      "}\n");
  const auto fns = parse_functions(ts);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "Keystore::evict");
  ASSERT_EQ(fns[0].body.size(), 1u);
  EXPECT_EQ(fns[0].body[0].first_line, 2);
  EXPECT_EQ(fns[0].body[0].last_line, 4);
}

// ---------------------------------------------------------------------------
// CFG.

TEST(Cfg, EarlyReturnEdgesToExit) {
  const TokenStream ts = tokenize(
      "int f(bool c) {\n"
      "  if (c) { return 1; }\n"
      "  return 0;\n"
      "}\n");
  const auto fns = parse_functions(ts);
  ASSERT_EQ(fns.size(), 1u);
  const Cfg g = build_cfg(fns[0]);
  int returns = 0;
  for (const CfgNode& n : g.nodes) {
    if (n.is_return) {
      ++returns;
      ASSERT_EQ(n.succs.size(), 1u);
      EXPECT_EQ(n.succs[0], g.exit);
    }
  }
  EXPECT_EQ(returns, 2);
}

TEST(Cfg, LoopHasBackEdge) {
  const TokenStream ts = tokenize(
      "void f(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    step(i);\n"
      "  }\n"
      "  done();\n"
      "}\n");
  const auto fns = parse_functions(ts);
  const Cfg g = build_cfg(fns[0]);
  // The loop header must have >= 2 preds: entry-side and the back edge.
  bool found_join = false;
  for (const CfgNode& n : g.nodes) {
    if (n.stmt != nullptr && n.stmt->kind == StmtKind::kFor) {
      found_join = n.preds.size() >= 2;
    }
  }
  EXPECT_TRUE(found_join);
}

// ---------------------------------------------------------------------------
// Annotation binding.

TEST(Annotations, BindsToStatementNotWindow) {
  const TokenStream ts = tokenize(
      "void f() {\n"
      "  // keylint: allow(raw-memset) — only the next statement\n"
      "  a = 0;\n"
      "  memset(b, 0, 4);\n"
      "}\n");
  const auto fns = parse_functions(ts);
  const Annotations ann(ts);
  ASSERT_EQ(fns[0].body.size(), 2u);
  EXPECT_TRUE(ann.statement_allows(fns[0].body[0], "raw-memset"));
  EXPECT_FALSE(ann.statement_allows(fns[0].body[1], "raw-memset"));
}

TEST(Annotations, CoversMultiLineStatement) {
  const TokenStream ts = tokenize(
      "void f() {\n"
      "  // keylint: allow(raw-free) — whole statement below\n"
      "  int rc =\n"
      "      x(a) +\n"
      "      y(b) +\n"
      "      release(c);\n"
      "}\n");
  const auto fns = parse_functions(ts);
  const Annotations ann(ts);
  ASSERT_EQ(fns[0].body.size(), 1u);
  EXPECT_TRUE(ann.statement_allows(fns[0].body[0], "raw-free"));
  EXPECT_FALSE(ann.statement_allows(fns[0].body[0], "raw-memset"));
}

TEST(Annotations, CommentRunAboveSpansBlankLine) {
  const TokenStream ts = tokenize(
      "void f() {\n"
      "  // keylint: allow(raw-free) — reason\n"
      "  // (second comment line)\n"
      "\n"
      "  release(c);\n"
      "}\n");
  const auto fns = parse_functions(ts);
  const Annotations ann(ts);
  ASSERT_EQ(fns[0].body.size(), 1u);
  EXPECT_TRUE(ann.statement_allows(fns[0].body[0], "raw-free"));
}

TEST(Annotations, ScopeEndsAtFirstCodeLine) {
  const std::string src =
      "void f(K& k, P& p, Ctx& c) {\n"
      "  note(k, \"retiring PEM read buffer\");\n"
      "  // keylint: allow(raw-free) — bound to touch(), not the free\n"
      "  touch(c);\n"
      "  k.heap_free(p, c.buf);\n"
      "}\n";
  const TokenStream ts = tokenize(src);
  const auto fns = parse_functions(ts);
  const Annotations ann(ts);
  ASSERT_EQ(fns[0].body.size(), 3u);
  EXPECT_TRUE(ann.statement_allows(fns[0].body[1], "raw-free"));
  EXPECT_FALSE(ann.statement_allows(fns[0].body[2], "raw-free"));
  const FileCheckResult res = analyze_source("scope.cpp", src);
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].check, "KL102");
  EXPECT_EQ(res.findings[0].line, 5);
}

TEST(Annotations, TrailingCommentOnStatementLine) {
  const TokenStream ts = tokenize(
      "void f() {\n"
      "  release(c);  // keylint: allow(raw-free) — reason\n"
      "}\n");
  const auto fns = parse_functions(ts);
  const Annotations ann(ts);
  EXPECT_TRUE(ann.statement_allows(fns[0].body[0], "raw-free"));
}

// ---------------------------------------------------------------------------
// Fixture battery.

class FixtureBattery : public ::testing::Test {
 protected:
  static std::vector<fs::path> list(const char* sub) {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(fixture_dir() / sub)) {
      if (e.path().extension() == ".cpp") out.push_back(e.path());
    }
    std::sort(out.begin(), out.end());
    EXPECT_FALSE(out.empty());
    return out;
  }
};

TEST_F(FixtureBattery, KnownBadYieldExactlyTheirExpectedFindings) {
  for (const fs::path& p : list("known_bad")) {
    const std::string src = slurp(p);
    const auto expected = expected_findings(src);
    ASSERT_FALSE(expected.empty()) << p << " has no `// expect:` marker";
    const FileCheckResult res = analyze_source(p.filename().string(), src);
    EXPECT_EQ(actual_findings(res), expected) << "fixture " << p;
  }
}

TEST_F(FixtureBattery, KnownGoodAreClean) {
  for (const fs::path& p : list("known_good")) {
    const FileCheckResult res = analyze_source(p.filename().string(), slurp(p));
    EXPECT_TRUE(res.findings.empty())
        << "fixture " << p << " first finding: "
        << (res.findings.empty() ? "" : res.findings[0].check + " line " +
                                            std::to_string(res.findings[0].line));
  }
}

TEST_F(FixtureBattery, Kl104FixturesPopulateComplianceSites) {
  const fs::path bad = fixture_dir() / "known_bad" / "kl104_unlocked.cpp";
  const fs::path good = fixture_dir() / "known_good" / "kl104_locked.cpp";
  const FileCheckResult rb = analyze_source("kl104_unlocked.cpp", slurp(bad));
  ASSERT_EQ(rb.sites.size(), 1u);
  EXPECT_EQ(rb.sites[0].status, "violation");
  EXPECT_FALSE(rb.sites[0].locked);
  const FileCheckResult rg = analyze_source("kl104_locked.cpp", slurp(good));
  ASSERT_EQ(rg.sites.size(), 1u);
  EXPECT_EQ(rg.sites[0].status, "compliant");
  EXPECT_TRUE(rg.sites[0].locked);
}

// ---------------------------------------------------------------------------
// Robustness: damaged input must never crash or hang the analyzer (ctest's
// timeout catches a hang; the ASan job runs this binary too), and every
// finding must point into the file it came from.

namespace {

// 1-4 edits: byte flips, truncations, and inserted braces, quotes and
// comment openers — the tokens that move the lexer's and parser's state.
std::string mutate(std::string s, keyguard::util::Rng& rng) {
  static constexpr std::string_view kInserts[] = {"{", "}", "\"", "/*", "//"};
  const auto edits = 1 + rng.next_below(4);
  for (std::uint64_t i = 0; i < edits && !s.empty(); ++i) {
    const auto at = static_cast<std::size_t>(rng.next_below(s.size()));
    switch (rng.next_below(3)) {
      case 0:
        s[at] = static_cast<char>(s[at] ^ static_cast<char>(1 + rng.next_below(255)));
        break;
      case 1:
        s.resize(at);
        break;
      default:
        s.insert(at, kInserts[rng.next_below(std::size(kInserts))]);
    }
  }
  return s;
}

}  // namespace

TEST(Robustness, MutatedSourcesAlwaysReturn) {
  std::vector<fs::path> inputs;
  for (const char* sub : {"known_bad", "known_good"}) {
    for (const auto& e : fs::directory_iterator(fixture_dir() / sub)) {
      inputs.push_back(e.path());
    }
  }
  for (const char* rel : {"core/secure_rsa.cpp", "keystore/host_pool.cpp",
                          "sslsim/ssl_library.cpp", "sim/kernel.cpp",
                          "lint/checks.cpp"}) {
    inputs.push_back(fs::path(LINT_SOURCE_DIR) / rel);
  }
  std::sort(inputs.begin(), inputs.end());
  keyguard::util::Rng rng(2007);
  constexpr int kMutantsPerInput = 32;
  for (const fs::path& p : inputs) {
    const std::string src = slurp(p);
    ASSERT_FALSE(src.empty()) << p;
    for (int m = 0; m < kMutantsPerInput; ++m) {
      const std::string mutant = mutate(src, rng);
      const int lines =
          1 + static_cast<int>(std::count(mutant.begin(), mutant.end(), '\n'));
      const FileCheckResult res = analyze_source(p.filename().string(), mutant);
      for (const Finding& f : res.findings) {
        EXPECT_GE(f.line, 1) << p << " mutant " << m << ": " << f.check;
        EXPECT_LE(f.line, lines) << p << " mutant " << m << ": " << f.check;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Waivers and output formats.

TEST(Waivers, SuffixMatchAndReason) {
  std::vector<Finding> fs = {
      {"KL101", "src/a/b.cpp", 10, "m", false, {}},
      {"KL102", "src/a/b.cpp", 11, "m", false, {}},
  };
  apply_waivers(fs, {{"KL101", "a/b.cpp", "known issue #42"}});
  EXPECT_TRUE(fs[0].waived);
  EXPECT_EQ(fs[0].waive_reason, "known issue #42");
  EXPECT_FALSE(fs[1].waived);
}

TEST(Report, TextMatchesKeylintV1Shape) {
  const std::vector<Finding> fs = {
      {"KL102", "src/x.cpp", 7, "raw memset", false, {}}};
  const std::string text = render_text(fs);
  EXPECT_NE(text.find("src/x.cpp:7: KL102 raw memset"), std::string::npos);
  EXPECT_NE(text.find("1 finding"), std::string::npos);
}

TEST(Report, SarifIsWellFormedJson) {
  const std::vector<Finding> fs = {
      {"KL101", "src/x.cpp", 3, "leak \"quoted\"", false, {}},
      {"KL104", "src/y.cpp", 9, "unlocked", true, "measured baseline"},
  };
  const std::string sarif = render_sarif(fs);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("KL101"), std::string::npos);
  // Rough structural check: braces and brackets balance.
  int brace = 0, bracket = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < sarif.size(); ++i) {
    const char c = sarif[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{') ++brace;
    else if (c == '}') --brace;
    else if (c == '[') ++bracket;
    else if (c == ']') --bracket;
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
}

TEST(Report, ComplianceSummaryCounts) {
  const std::vector<ComplianceSite> sites = {
      {"a.cpp", 1, "mmap_anon", "key vault", true, "compliant", "ok"},
      {"b.cpp", 2, "heap_alloc", "key vault", false, "violation", "swappable"},
      {"c.cpp", 3, "mmap_anon", "rsa_aligned", false, "allowed", "annotated"},
  };
  const std::string doc = render_compliance(sites);
  EXPECT_NE(doc.find("locked_memory_compliance"), std::string::npos);
  EXPECT_NE(doc.find("\"violations\":1"), std::string::npos)
      << doc;
}

TEST(Catalogue, HasAllFourChecks) {
  const auto& cat = check_catalogue();
  ASSERT_EQ(cat.size(), 4u);
  EXPECT_STREQ(cat[0].id, "KL101");
  EXPECT_STREQ(cat[3].id, "KL104");
}
