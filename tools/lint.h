#ifndef CCDB_TOOLS_LINT_H_
#define CCDB_TOOLS_LINT_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace ccdb::lint {

/// One diagnostic produced by the checker. `path` is the path the file was
/// given as (normalized to forward slashes, relative to the scan root when
/// walking a tree), `line` is 1-based.
struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& other) const {
    if (path != other.path) return path < other.path;
    if (line != other.line) return line < other.line;
    return rule < other.rule;
  }
  bool operator==(const Finding& other) const {
    return path == other.path && line == other.line && rule == other.rule;
  }
};

/// Rule identifiers (stable — they appear in allow() comments, the baseline
/// file, and DESIGN.md §10).
inline constexpr const char* kRuleStatusNodiscard = "status-nodiscard";
inline constexpr const char* kRuleRngSource = "rng-source";
inline constexpr const char* kRuleRawThread = "raw-thread";
inline constexpr const char* kRuleBlockingWait = "blocking-wait";
inline constexpr const char* kRuleNoThrow = "no-throw";
inline constexpr const char* kRuleIncludeGuard = "include-guard";
inline constexpr const char* kRuleUsingNamespaceHeader = "using-namespace-header";
inline constexpr const char* kRuleRawFileIo = "raw-file-io";
inline constexpr const char* kRuleRawMutex = "raw-mutex";
inline constexpr const char* kRuleUnguardedMember = "unguarded-member";

/// All rule IDs in a fixed order (for --list-rules and tests).
std::vector<std::string> AllRules();

/// Lints one file whose contents are already in memory. `rel_path` is the
/// forward-slash path relative to the repository root; it drives the
/// per-rule scoping (e.g. blocking-wait only fires under src/crowd and
/// src/core) and the expected include-guard name. Findings suppressed by a
/// `// ccdb-lint: allow(<rule>)` comment are not returned: an allow() on a
/// code line covers that line; an allow() on a comment-only line covers
/// the next code line (intervening comment lines may carry the wrapped
/// rationale).
std::vector<Finding> LintContents(const std::string& rel_path,
                                  std::string_view contents);

/// Reads and lints one file on disk. Returns false (and appends a finding
/// with rule "io-error") if the file cannot be read.
bool LintFile(const std::string& root, const std::string& rel_path,
              std::vector<Finding>& findings);

/// Recursively lints every .h/.cc file under `root`/<dir> for each dir in
/// `dirs`. Directories named "lint_fixtures" are skipped so the checker's
/// own deliberately-broken test fixtures never fail the tree gate (they are
/// linted explicitly by tests/lint_test.cc). Findings are sorted.
std::vector<Finding> LintTree(const std::string& root,
                              const std::vector<std::string>& dirs);

/// Baseline handling. A baseline line is `path:line:rule`; `#` starts a
/// comment. Findings whose key appears in the baseline are filtered out —
/// the gate only fails on regressions. Regenerate with --write-baseline.
std::set<std::string> LoadBaseline(const std::string& path, bool& ok);
std::string BaselineKey(const Finding& finding);

/// "path:line: [rule] message" — the one-line diagnostic format.
std::string FormatFinding(const Finding& finding);

}  // namespace ccdb::lint

#endif  // CCDB_TOOLS_LINT_H_
