// safeloc_lint test driver: golden fixture corpus + rule-engine edge cases
// + the self-clean check (the linter must exit clean on the real tree, or
// the CI lint job would be red on every push).
//
// Fixture protocol (tests/lint_fixtures/*.cpp):
//   // lint-as: <path>           pretend path, gates path-scoped rules
//   ... code ...  // expect(Rn)  an ACTIVE finding of rule Rn on this line
//   ... code ...  // expect-suppressed(Rn)   a suppressed finding here
// Lines without markers must produce nothing — so every fixture is
// simultaneously a detection test and a false-positive test.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/safeloc_lint/lint.h"

#ifndef SAFELOC_LINT_SOURCE_ROOT
#error "build must define SAFELOC_LINT_SOURCE_ROOT (see CMakeLists.txt)"
#endif

namespace {

namespace fs = std::filesystem;
using safeloc::lint::FileReport;
using safeloc::lint::Finding;
using safeloc::lint::TreeReport;

const char* const kRoot = SAFELOC_LINT_SOURCE_ROOT;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// (line, rule) pairs harvested from `marker(Rn)` comments.
std::set<std::pair<int, std::string>> expectations(const std::string& text,
                                                   const std::string& marker) {
  std::set<std::pair<int, std::string>> out;
  std::istringstream lines(text);
  std::string line;
  int number = 0;
  const std::string needle = marker + "(";
  while (std::getline(lines, line)) {
    ++number;
    std::size_t pos = 0;
    while ((pos = line.find(needle, pos)) != std::string::npos) {
      const std::size_t begin = pos + needle.size();
      const std::size_t close = line.find(')', begin);
      if (close == std::string::npos) break;
      out.insert({number, line.substr(begin, close - begin)});
      pos = close + 1;
    }
  }
  return out;
}

std::set<std::pair<int, std::string>> as_pairs(
    const std::vector<Finding>& findings) {
  std::set<std::pair<int, std::string>> out;
  for (const Finding& f : findings) out.insert({f.line, f.rule});
  return out;
}

std::string describe(const std::set<std::pair<int, std::string>>& pairs) {
  std::string out;
  for (const auto& [line, rule] : pairs) {
    out += "  line " + std::to_string(line) + ": " + rule + "\n";
  }
  return out.empty() ? "  (none)\n" : out;
}

// ---------------------------------------------------------------------------
// Golden fixture corpus: every fixture's expect() markers must match the
// linter's findings exactly — extras and misses both fail.
// ---------------------------------------------------------------------------

TEST(LintFixtures, EveryFixtureMatchesItsExpectMarkersExactly) {
  const fs::path corpus = fs::path(kRoot) / "tests" / "lint_fixtures";
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
  std::vector<fs::path> fixtures;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() == ".cpp") fixtures.push_back(entry.path());
  }
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_GE(fixtures.size(), 11u) << "fixture corpus shrank";

  for (const fs::path& fixture : fixtures) {
    SCOPED_TRACE(fixture.filename().string());
    const std::string text = read_file(fixture);
    const FileReport report =
        safeloc::lint::lint_file(fixture.filename().string(), text);
    EXPECT_EQ(expectations(text, "expect"), as_pairs(report.findings))
        << "active findings diverge from expect() markers.\nwant:\n"
        << describe(expectations(text, "expect")) << "got:\n"
        << describe(as_pairs(report.findings));
    EXPECT_EQ(expectations(text, "expect-suppressed"),
              as_pairs(report.suppressed))
        << "suppressed findings diverge from expect-suppressed() markers";
  }
}

TEST(LintFixtures, CorpusCoversEveryCatalogRule) {
  const fs::path corpus = fs::path(kRoot) / "tests" / "lint_fixtures";
  std::set<std::string> seen;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() != ".cpp") continue;
    for (const auto& [line, rule] :
         expectations(read_file(entry.path()), "expect")) {
      seen.insert(rule);
    }
  }
  for (const safeloc::lint::RuleInfo& rule : safeloc::lint::rule_catalog()) {
    EXPECT_TRUE(seen.count(rule.id) != 0)
        << "no fixture exercises rule " << rule.id << " (" << rule.name
        << ")";
  }
}

// ---------------------------------------------------------------------------
// Rule-engine edges not worth a whole fixture file.
// ---------------------------------------------------------------------------

TEST(LintEngine, CatalogHasNineOrderedRules) {
  const auto& catalog = safeloc::lint::rule_catalog();
  ASSERT_EQ(catalog.size(), 9u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    std::string id = "R";
    id += std::to_string(i + 1);
    EXPECT_EQ(catalog[i].id, id);
    EXPECT_NE(std::string(catalog[i].fixit), "");
  }
}

TEST(LintEngine, PathGatingFollowsLintAsOverride) {
  const std::string body = "int f() { return rand(); }\n";
  // Unscoped path: R2 does not apply.
  EXPECT_TRUE(
      safeloc::lint::lint_file("bench/foo.cpp", body).findings.empty());
  // Same bytes, scoped into the deterministic core via lint-as.
  const std::string scoped = "// lint-as: src/core/foo.cpp\n" + body;
  const FileReport report = safeloc::lint::lint_file("bench/foo.cpp", scoped);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "R2");
  EXPECT_EQ(report.findings[0].line, 2);
  // Findings are labelled with the real display path, not the override.
  EXPECT_EQ(report.findings[0].file, "bench/foo.cpp");
}

TEST(LintEngine, GetenvAllowedOnlyInConfigCpp) {
  const std::string body = "#include <cstdlib>\n"
                           "const char* v = std::getenv(\"X\");\n";
  EXPECT_TRUE(safeloc::lint::lint_file("src/util/config.cpp", body)
                  .findings.empty());
  const FileReport elsewhere =
      safeloc::lint::lint_file("src/util/other.cpp", body);
  ASSERT_EQ(elsewhere.findings.size(), 1u);
  EXPECT_EQ(elsewhere.findings[0].rule, "R1");
}

TEST(LintEngine, SuppressionCarriesReasonAndIsCounted) {
  const std::string body =
      "// safeloc-lint: allow(R1 inherited CLI contract)\n"
      "const char* v = std::getenv(\"X\");\n";
  const FileReport report = safeloc::lint::lint_file("src/a.cpp", body);
  EXPECT_TRUE(report.findings.empty());
  ASSERT_EQ(report.suppressed.size(), 1u);
  EXPECT_EQ(report.suppressed[0].rule, "R1");
  EXPECT_EQ(report.suppressed[0].suppress_reason, "inherited CLI contract");
}

TEST(LintEngine, FindingFormatIsFileLineRuleMessage) {
  const FileReport report = safeloc::lint::lint_file(
      "src/b.cpp", "const char* v = getenv(\"X\");\n");
  ASSERT_EQ(report.findings.size(), 1u);
  const std::string line = safeloc::lint::format_finding(report.findings[0]);
  EXPECT_EQ(line.rfind("src/b.cpp:1: R1: ", 0), 0u) << line;
}

// ---------------------------------------------------------------------------
// Self-clean: the real tree must lint clean, or CI goes red. This is also
// the regression harness for the PR's own sweeps (R1 getenv migration, R3
// expect_exhausted audit).
// ---------------------------------------------------------------------------

TEST(LintTree, RealTreeIsCleanAndFixtureCorpusIsExcluded) {
  const TreeReport report = safeloc::lint::lint_tree(kRoot);
  EXPECT_TRUE(report.errors.empty())
      << "walk errors: " << report.errors.size();
  // The tree is large; a tiny count means the walk silently missed layers.
  EXPECT_GE(report.files_scanned, 80u);
  std::string rendered;
  for (const Finding& f : report.findings) {
    rendered += "  " + safeloc::lint::format_finding(f) + "\n";
  }
  EXPECT_TRUE(report.findings.empty())
      << "the real tree must lint clean; fix or explicitly allow():\n"
      << rendered;
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.file.find("lint_fixtures"), std::string::npos)
        << "fixture corpus leaked into the tree walk: " << f.file;
  }
}

}  // namespace
