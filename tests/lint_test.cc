// Tests for tools/ccdb_lint: every rule fires on its fixture at the exact
// file/line, the clean fixture stays silent, allow() suppression works in
// both spellings, and the baseline machinery filters as documented. The
// fixtures live under tests/lint_fixtures/fake_repo — a miniature tree the
// real gate deliberately skips (LintTree prunes lint_fixtures dirs).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint.h"

namespace ccdb::lint {
namespace {

#ifndef CCDB_LINT_FIXTURES_DIR
#error "build must define CCDB_LINT_FIXTURES_DIR"
#endif

std::string FixtureRoot() {
  return std::string(CCDB_LINT_FIXTURES_DIR) + "/fake_repo";
}

/// Findings for one fixture file, as compact "line:rule" keys.
std::vector<std::string> KeysFor(const std::vector<Finding>& findings,
                                 const std::string& path) {
  std::vector<std::string> keys;
  for (const Finding& f : findings) {
    if (f.path == path) {
      keys.push_back(std::to_string(f.line) + ":" + f.rule);
    }
  }
  return keys;
}

class LintFixtureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    findings_ = new std::vector<Finding>(LintTree(FixtureRoot(), {"src"}));
  }
  static void TearDownTestSuite() {
    delete findings_;
    findings_ = nullptr;
  }
  static std::vector<Finding>* findings_;
};

std::vector<Finding>* LintFixtureTest::findings_ = nullptr;

TEST_F(LintFixtureTest, BlockingWaitFixture) {
  // The raw std primitives the fixture waits on are themselves raw-mutex
  // findings since the capability layer landed.
  EXPECT_EQ(KeysFor(*findings_, "src/core/bad_wait.cc"),
            (std::vector<std::string>{"9:raw-mutex", "10:raw-mutex",
                                      "11:raw-mutex", "12:blocking-wait",
                                      "13:blocking-wait",
                                      "15:blocking-wait"}));
}

TEST_F(LintFixtureTest, MemberWaitFixture) {
  // Capability-layer spelling: `x.Wait(` / `p->Wait(` calls are unbounded
  // waits; WaitFor and the allow()'d call stay silent.
  EXPECT_EQ(KeysFor(*findings_, "src/core/bad_member_wait.cc"),
            (std::vector<std::string>{"7:blocking-wait",
                                      "8:blocking-wait"}));
}

TEST_F(LintFixtureTest, RawMutexFixture) {
  EXPECT_EQ(KeysFor(*findings_, "src/net/bad_raw_mutex.cc"),
            (std::vector<std::string>{"9:raw-mutex", "10:raw-mutex",
                                      "11:raw-mutex", "12:raw-mutex"}));
}

TEST_F(LintFixtureTest, UnguardedMemberFixture) {
  // hits_/name_ follow the Mutex without GUARDED_BY; the CondVar is
  // exempt, entries_ is guarded, capacity_ carries an allow().
  EXPECT_EQ(KeysFor(*findings_, "src/core/unguarded_member.h"),
            (std::vector<std::string>{"10:unguarded-member",
                                      "11:unguarded-member"}));
}

TEST_F(LintFixtureTest, RngSourceFixture) {
  EXPECT_EQ(KeysFor(*findings_, "src/svm/bad_rng.cc"),
            (std::vector<std::string>{"6:rng-source", "7:rng-source",
                                      "8:rng-source", "9:rng-source"}));
}

TEST_F(LintFixtureTest, RawThreadFixture) {
  EXPECT_EQ(KeysFor(*findings_, "src/db/bad_thread.cc"),
            (std::vector<std::string>{"6:raw-thread", "7:raw-thread"}));
}

TEST_F(LintFixtureTest, NoThrowFixture) {
  EXPECT_EQ(KeysFor(*findings_, "src/data/bad_throw.cc"),
            (std::vector<std::string>{"6:no-throw"}));
}

TEST_F(LintFixtureTest, RawFileIoFixture) {
  EXPECT_EQ(KeysFor(*findings_, "src/data/bad_file_io.cc"),
            (std::vector<std::string>{"8:raw-file-io", "10:raw-file-io",
                                      "11:raw-file-io"}));
}

TEST_F(LintFixtureTest, HeaderHygieneFixture) {
  EXPECT_EQ(KeysFor(*findings_, "src/eval/bad_header.h"),
            (std::vector<std::string>{"2:include-guard",
                                      "7:using-namespace-header"}));
}

TEST_F(LintFixtureTest, ExplicitDiscardFixture) {
  EXPECT_EQ(KeysFor(*findings_, "src/crowd/bad_discard.cc"),
            (std::vector<std::string>{"5:status-nodiscard",
                                      "6:status-nodiscard",
                                      "8:status-nodiscard"}));
}

TEST_F(LintFixtureTest, StatusClassAnnotationFixture) {
  EXPECT_EQ(KeysFor(*findings_, "src/common/status.h"),
            (std::vector<std::string>{"9:status-nodiscard",
                                      "15:status-nodiscard"}));
}

TEST_F(LintFixtureTest, CleanFixturesProduceNoFindings) {
  EXPECT_TRUE(KeysFor(*findings_, "src/clean/clean_code.cc").empty());
  EXPECT_TRUE(KeysFor(*findings_, "src/clean/clean_header.h").empty());
}

TEST_F(LintFixtureTest, AllowSuppressionFixtureProducesNoFindings) {
  EXPECT_TRUE(KeysFor(*findings_, "src/core/suppressed.cc").empty());
}

TEST_F(LintFixtureTest, FixtureTreeFindingsAreExactlyTheExpectedSet) {
  // Guards against a rule silently firing on a fixture it should not
  // touch: the per-file expectations above must cover every finding.
  std::size_t expected = 6 + 4 + 2 + 1 + 2 + 3 + 2 + 3 + 2 + 4 + 2;
  EXPECT_EQ(findings_->size(), expected);
}

// --- LintContents edge cases ------------------------------------------------

TEST(LintContentsTest, CommentsAndStringsNeverFire) {
  const std::string code =
      "// std::thread in a comment\n"
      "/* throw inside a block comment */\n"
      "const char* s = \"std::async rand() wait( sleep_for\";\n"
      "const char* r = R\"x(throw std::thread)x\";\n";
  EXPECT_TRUE(LintContents("src/db/sample.cc", code).empty());
}

TEST(LintContentsTest, RuleScopingFollowsPath) {
  const std::string wait_code = "void F(M& m) { m.wait(); }\n";
  // In cancellable code the unbounded wait fires...
  EXPECT_EQ(LintContents("src/core/a.cc", wait_code).size(), 1u);
  EXPECT_EQ(LintContents("src/crowd/a.cc", wait_code).size(), 1u);
  // ...elsewhere it is out of scope.
  EXPECT_TRUE(LintContents("src/svm/a.cc", wait_code).empty());
  EXPECT_TRUE(LintContents("tests/a.cc", wait_code).empty());

  const std::string thread_code = "std::thread t;\n";
  EXPECT_EQ(LintContents("src/db/a.cc", thread_code).size(), 1u);
  // The pool implementation itself may spawn raw threads.
  EXPECT_TRUE(
      LintContents("src/common/thread_pool.cc", thread_code).empty());
  EXPECT_TRUE(LintContents("src/common/thread_pool.h",
                           "#ifndef CCDB_COMMON_THREAD_POOL_H_\n"
                           "#define CCDB_COMMON_THREAD_POOL_H_\n" +
                               thread_code + "#endif\n")
                  .empty());

  const std::string rng_code = "std::mt19937 gen(1);\n";
  EXPECT_EQ(LintContents("src/eval/a.cc", rng_code).size(), 1u);
  EXPECT_TRUE(LintContents("src/common/rng.cc", rng_code).empty());

  const std::string throw_code = "void F() { throw 1; }\n";
  EXPECT_EQ(LintContents("src/lsi/a.cc", throw_code).size(), 1u);
  // Tests simulate crashes with exceptions on purpose.
  EXPECT_TRUE(LintContents("tests/a_test.cc", throw_code).empty());

  // raw-mutex: everywhere but the capability layer itself and tests.
  const std::string mutex_code = "std::mutex mu;\n";
  EXPECT_EQ(LintContents("src/db/a.cc", mutex_code).size(), 1u);
  EXPECT_EQ(LintContents("src/net/a.cc", mutex_code).size(), 1u);
  EXPECT_TRUE(LintContents("src/common/mutex.h",
                           "#ifndef CCDB_COMMON_MUTEX_H_\n"
                           "#define CCDB_COMMON_MUTEX_H_\n" +
                               mutex_code + "#endif\n")
                  .empty());
  EXPECT_TRUE(LintContents("src/common/mutex.cc", mutex_code).empty());
  EXPECT_TRUE(LintContents("tests/a_test.cc", mutex_code).empty());

  // Member Wait() calls: only call sites fire — declarations and
  // qualified definitions are the implementations themselves.
  EXPECT_EQ(LintContents("src/core/a.cc", "t.Wait();\n").size(), 1u);
  EXPECT_EQ(LintContents("src/core/a.cc", "p->Wait();\n").size(), 1u);
  EXPECT_TRUE(LintContents("src/core/a.cc",
                           "SchemaExpansionResult Wait();\n")
                  .empty());
  EXPECT_TRUE(LintContents("src/core/a.cc",
                           "void ExpansionService::Ticket::Wait() {}\n")
                  .empty());
  EXPECT_TRUE(LintContents("src/core/a.cc",
                           "cv.WaitFor(mu, 0.002);\n")
                  .empty());
  EXPECT_TRUE(LintContents("src/svm/a.cc", "t.Wait();\n").empty());

  // unguarded-member: the forward scan stops at the class close and the
  // rule only applies under src/.
  const std::string member_code =
      "class C {\n"
      "  Mutex mu_;\n"
      "  int unguarded_;\n"
      "  int guarded_ GUARDED_BY(mu_);\n"
      "};\n"
      "int free_variable;\n";
  EXPECT_EQ(LintContents("src/db/a.h",
                         "#ifndef CCDB_DB_A_H_\n#define CCDB_DB_A_H_\n" +
                             member_code + "#endif\n")
                .size(),
            1u);
  EXPECT_TRUE(LintContents("tools/a.cc", member_code).empty());
}

TEST(LintContentsTest, IncludeGuardVariants) {
  // Matching guard: clean.
  EXPECT_TRUE(LintContents("src/core/x.h",
                           "#ifndef CCDB_CORE_X_H_\n"
                           "#define CCDB_CORE_X_H_\n"
                           "#endif\n")
                  .empty());
  // tools/ keeps its directory prefix in the guard.
  EXPECT_TRUE(LintContents("tools/lint.h",
                           "#ifndef CCDB_TOOLS_LINT_H_\n"
                           "#define CCDB_TOOLS_LINT_H_\n"
                           "#endif\n")
                  .empty());
  // Wrong name.
  std::vector<Finding> wrong = LintContents(
      "src/core/x.h", "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n");
  ASSERT_EQ(wrong.size(), 1u);
  EXPECT_EQ(wrong[0].rule, kRuleIncludeGuard);
  EXPECT_EQ(wrong[0].line, 1);
  // #pragma once is not the project convention.
  std::vector<Finding> pragma =
      LintContents("src/core/x.h", "#pragma once\n");
  ASSERT_EQ(pragma.size(), 1u);
  EXPECT_EQ(pragma[0].rule, kRuleIncludeGuard);
  // #ifndef without the matching #define.
  std::vector<Finding> undefined = LintContents(
      "src/core/x.h", "#ifndef CCDB_CORE_X_H_\nint x;\n#endif\n");
  ASSERT_EQ(undefined.size(), 1u);
  EXPECT_EQ(undefined[0].rule, kRuleIncludeGuard);
  // Missing entirely.
  std::vector<Finding> missing = LintContents("src/core/x.h", "int x;\n");
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].rule, kRuleIncludeGuard);
}

TEST(LintContentsTest, AllowOnSameAndPrecedingCommentLine) {
  EXPECT_TRUE(LintContents("src/db/a.cc",
                           "std::thread t;  // ccdb-lint: allow(raw-thread)"
                           " — why\n")
                  .empty());
  EXPECT_TRUE(LintContents("src/db/a.cc",
                           "// ccdb-lint: allow(raw-thread) — wrapped\n"
                           "// rationale continues here\n"
                           "std::thread t;\n")
                  .empty());
  // The allow must name the right rule.
  EXPECT_EQ(LintContents("src/db/a.cc",
                          "// ccdb-lint: allow(no-throw) — wrong rule\n"
                          "std::thread t;\n")
                .size(),
            1u);
  // A trailing comment-only allow with no following code covers nothing.
  EXPECT_EQ(LintContents("src/db/a.cc",
                          "std::thread t;\n"
                          "// ccdb-lint: allow(raw-thread) — too late\n")
                .size(),
            1u);
}

// --- baseline machinery -----------------------------------------------------

TEST(BaselineTest, KeysRoundTripThroughFileFormat) {
  const Finding finding{"src/core/a.cc", 12, "blocking-wait", "msg"};
  EXPECT_EQ(BaselineKey(finding), "src/core/a.cc:12:blocking-wait");

  const std::string path =
      ::testing::TempDir() + "/ccdb_lint_baseline_test.txt";
  {
    std::ofstream out(path);
    out << "# comment line\n"
        << "\n"
        << "  src/core/a.cc:12:blocking-wait  \n";
  }
  bool ok = false;
  std::set<std::string> baseline = LoadBaseline(path, ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(baseline.size(), 1u);
  // Leading whitespace is trimmed; trailing content is preserved as-is up
  // to the newline, so the exact key must be present after trimming.
  EXPECT_TRUE(baseline.count("src/core/a.cc:12:blocking-wait  ") > 0 ||
              baseline.count("src/core/a.cc:12:blocking-wait") > 0);
  std::remove(path.c_str());
}

TEST(BaselineTest, MissingBaselineReportsNotOk) {
  bool ok = true;
  std::set<std::string> baseline =
      LoadBaseline("/nonexistent/ccdb/baseline.txt", ok);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(baseline.empty());
}

// --- misc -------------------------------------------------------------------

TEST(LintApiTest, AllRulesListsEveryRuleOnce) {
  const std::vector<std::string> rules = AllRules();
  const std::set<std::string> unique(rules.begin(), rules.end());
  EXPECT_EQ(rules.size(), 10u);
  EXPECT_EQ(unique.size(), rules.size());
  EXPECT_TRUE(unique.count(kRuleStatusNodiscard) > 0);
  EXPECT_TRUE(unique.count(kRuleBlockingWait) > 0);
  EXPECT_TRUE(unique.count(kRuleRawFileIo) > 0);
  EXPECT_TRUE(unique.count(kRuleRawMutex) > 0);
  EXPECT_TRUE(unique.count(kRuleUnguardedMember) > 0);
}

TEST(LintApiTest, FormatFindingIsStable) {
  const Finding finding{"src/db/a.cc", 3, "raw-thread", "message"};
  EXPECT_EQ(FormatFinding(finding), "src/db/a.cc:3: [raw-thread] message");
}

TEST(LintApiTest, LintFileReportsIoError) {
  std::vector<Finding> findings;
  EXPECT_FALSE(LintFile(FixtureRoot(), "src/does_not_exist.cc", findings));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io-error");
}

// The real tree must stay clean: this duplicates the lint_gate ctest from
// inside the test binary so a plain `ctest -R lint_test` still proves it.
TEST(LintTreeTest, RepositoryTreeIsCleanModuloBaseline) {
#ifdef CCDB_REPO_ROOT
  bool ok = false;
  std::set<std::string> baseline = LoadBaseline(
      std::string(CCDB_REPO_ROOT) + "/tools/lint_baseline.txt", ok);
  ASSERT_TRUE(ok) << "tools/lint_baseline.txt must be checked in";
  std::vector<Finding> findings = LintTree(
      CCDB_REPO_ROOT, {"src", "tests", "bench", "tools", "examples"});
  std::vector<std::string> fresh;
  for (const Finding& f : findings) {
    if (baseline.count(BaselineKey(f)) == 0) {
      fresh.push_back(FormatFinding(f));
    }
  }
  EXPECT_TRUE(fresh.empty()) << fresh.size() << " new finding(s), first: "
                             << fresh.front();
#else
  GTEST_SKIP() << "CCDB_REPO_ROOT not defined";
#endif
}

}  // namespace
}  // namespace ccdb::lint
