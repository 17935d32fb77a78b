#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace ccdb::lint {
namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Returns `contents` with comments and string/char literal bodies replaced
/// by spaces, newlines preserved. Rule matching runs on this "code view" so
/// a `throw` in prose or a "std::thread" in a log message never fires;
/// allow() comments are parsed from the original text instead.
std::string CodeView(std::string_view contents) {
  std::string out(contents);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // e.g. )foo" for R"foo(
  for (std::size_t i = 0; i < contents.size(); ++i) {
    const char c = contents[i];
    const char next = i + 1 < contents.size() ? contents[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          // R"delim( ... )delim" — only when R directly precedes the quote
          // and is not the tail of an identifier (e.g. `FooR"x"` cannot
          // occur; `R` prefixed by a word char is an ordinary quote).
          if (i > 0 && contents[i - 1] == 'R' &&
              (i < 2 || !IsWordChar(contents[i - 2]))) {
            std::size_t j = i + 1;
            std::string delim;
            while (j < contents.size() && contents[j] != '(' &&
                   delim.size() < 16) {
              delim.push_back(contents[j]);
              ++j;
            }
            raw_delim = ")" + delim + "\"";
            state = State::kRawString;
          } else {
            state = State::kString;
          }
        } else if (c == '\'') {
          // Heuristic: treat as a char literal only when it does not
          // follow a word character (digit separators like 1'000'000).
          if (i == 0 || !IsWordChar(contents[i - 1])) state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          if (c != '\n') out[i] = ' ';
          if (next != '\n' && i + 1 < contents.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          if (c != '\n') out[i] = ' ';
          if (next != '\n' && i + 1 < contents.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (c == ')' && contents.compare(i, raw_delim.size(), raw_delim) ==
                            0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j) {
            if (contents[i + j] != '\n') out[i + j] = ' ';
          }
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    std::string line(text.substr(start, end - start));
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
    start = end + 1;
  }
  return lines;
}

/// Finds the next occurrence of `ident` in `line` at or after `from` that
/// stands alone as an identifier (word boundaries on both sides). Returns
/// npos when absent. `ident` may contain "::" (checked verbatim).
std::size_t FindIdent(const std::string& line, std::string_view ident,
                      std::size_t from = 0) {
  std::size_t pos = from;
  while ((pos = line.find(ident, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
    const std::size_t end = pos + ident.size();
    const bool right_ok = end >= line.size() || !IsWordChar(line[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string::npos;
}

bool HasIdent(const std::string& line, std::string_view ident) {
  return FindIdent(line, ident) != std::string::npos;
}

/// True when the identifier at `pos` is followed (after whitespace) by an
/// opening parenthesis — i.e. it is used as a call, not mentioned as a
/// member name like `deadline.wait_budget`.
bool IdentIsCall(const std::string& line, std::size_t pos,
                 std::size_t ident_size) {
  std::size_t i = pos + ident_size;
  while (i < line.size() &&
         std::isspace(static_cast<unsigned char>(line[i])) != 0) {
    ++i;
  }
  return i < line.size() && line[i] == '(';
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) ==
                                          0;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeaderPath(std::string_view path) { return EndsWith(path, ".h"); }

/// Expected include guard for a header: strip a leading "src/", uppercase,
/// map every non-alphanumeric character to '_', wrap in CCDB_..._.
/// src/core/expansion.h -> CCDB_CORE_EXPANSION_H_
/// tools/lint.h         -> CCDB_TOOLS_LINT_H_
std::string ExpectedGuard(std::string_view rel_path) {
  std::string_view path = rel_path;
  if (StartsWith(path, "src/")) path.remove_prefix(4);
  std::string guard = "CCDB_";
  for (char c : path) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard.push_back(static_cast<char>(
          std::toupper(static_cast<unsigned char>(c))));
    } else {
      guard.push_back('_');
    }
  }
  guard.push_back('_');
  return guard;
}

/// Per-line sets of rules suppressed by `// ccdb-lint: allow(a, b)`
/// comments, parsed from the ORIGINAL lines (allow() lives in comments,
/// which the code view blanks).
std::vector<std::set<std::string>> ParseAllows(
    const std::vector<std::string>& lines) {
  std::vector<std::set<std::string>> allows(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::size_t pos = 0;
    while ((pos = lines[i].find("ccdb-lint:", pos)) != std::string::npos) {
      std::size_t open = lines[i].find("allow(", pos);
      if (open == std::string::npos) break;
      open += 6;
      const std::size_t close = lines[i].find(')', open);
      if (close == std::string::npos) break;
      std::string list = lines[i].substr(open, close - open);
      std::stringstream ss(list);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        const std::size_t b = rule.find_first_not_of(" \t");
        const std::size_t e = rule.find_last_not_of(" \t");
        if (b != std::string::npos) {
          allows[i].insert(rule.substr(b, e - b + 1));
        }
      }
      pos = close;
    }
  }
  return allows;
}

struct RuleContext {
  const std::string& rel_path;
  const std::vector<std::string>& code_lines;
  std::vector<Finding>& findings;

  void Add(int line, const char* rule, std::string message) const {
    findings.push_back(Finding{rel_path, line, rule, std::move(message)});
  }
};

bool InDir(std::string_view rel_path, std::string_view dir) {
  return StartsWith(rel_path, dir);
}

// --- rule: rng-source ------------------------------------------------------

void CheckRngSource(const RuleContext& ctx) {
  if (InDir(ctx.rel_path, "src/common/rng.")) return;
  const std::string_view kBanned[] = {"random_device", "mt19937",
                                      "mt19937_64",    "rand",
                                      "srand",         "random_shuffle"};
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    for (std::string_view ident : kBanned) {
      if (HasIdent(ctx.code_lines[i], ident)) {
        ctx.Add(static_cast<int>(i + 1), kRuleRngSource,
                std::string("randomness must flow through the seeded "
                            "common/rng.h wrapper, not ") +
                    std::string(ident));
        break;  // one diagnostic per line
      }
    }
  }
}

// --- rule: raw-thread -------------------------------------------------------

void CheckRawThread(const RuleContext& ctx) {
  if (InDir(ctx.rel_path, "src/common/thread_pool.")) return;
  const std::string_view kBanned[] = {"std::thread", "std::jthread",
                                      "std::async"};
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    for (std::string_view ident : kBanned) {
      std::size_t pos = ctx.code_lines[i].find(ident);
      while (pos != std::string::npos) {
        const std::size_t end = pos + ident.size();
        if (end >= ctx.code_lines[i].size() ||
            !IsWordChar(ctx.code_lines[i][end])) {
          ctx.Add(static_cast<int>(i + 1), kRuleRawThread,
                  std::string("threads spawn via common::ThreadPool, not ") +
                      std::string(ident));
          break;
        }
        pos = ctx.code_lines[i].find(ident, end);
      }
    }
  }
}

// --- rule: blocking-wait ----------------------------------------------------

void CheckBlockingWait(const RuleContext& ctx) {
  // Only cancellable code is in scope: src/crowd and src/core must never
  // block without a bound (Deadline / wait_for / wait_until), or a stuck
  // crowd platform wedges the whole expansion service.
  if (!InDir(ctx.rel_path, "src/crowd/") && !InDir(ctx.rel_path, "src/core/"))
    return;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    for (std::string_view ident : {std::string_view("sleep_for"),
                                   std::string_view("sleep_until")}) {
      if (HasIdent(line, ident)) {
        ctx.Add(static_cast<int>(i + 1), kRuleBlockingWait,
                "unconditional sleep in cancellable code; poll a Deadline / "
                "CancellationToken instead");
      }
    }
    std::size_t pos = 0;
    while ((pos = FindIdent(line, "wait", pos)) != std::string::npos) {
      if (IdentIsCall(line, pos, 4)) {
        ctx.Add(static_cast<int>(i + 1), kRuleBlockingWait,
                "unbounded wait() in cancellable code; use wait_for / "
                "wait_until with a Deadline-derived budget");
      }
      pos += 4;
    }
    // The capability layer's CondVar::Wait and the blocking Wait() methods
    // built on it (Ticket::Wait, ThreadPool::Wait) are just as unbounded.
    // Only member CALLS are in scope: `x.Wait(` / `p->Wait(`. Declarations
    // (`Result Wait();`) and definitions (`Ticket::Wait() {`) are the
    // bounded implementations themselves, and WaitFor/WaitUntil escape via
    // the identifier boundary.
    pos = 0;
    while ((pos = FindIdent(line, "Wait", pos)) != std::string::npos) {
      const bool member_call =
          (pos >= 1 && line[pos - 1] == '.') ||
          (pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>');
      if (member_call && IdentIsCall(line, pos, 4)) {
        ctx.Add(static_cast<int>(i + 1), kRuleBlockingWait,
                "unbounded Wait() in cancellable code; use WaitFor with a "
                "Deadline-derived budget (or justify with an allow())");
      }
      pos += 4;
    }
  }
}

// --- rule: no-throw ---------------------------------------------------------

void CheckNoThrow(const RuleContext& ctx) {
  if (InDir(ctx.rel_path, "tests/")) return;  // tests may simulate crashes
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    if (HasIdent(ctx.code_lines[i], "throw")) {
      ctx.Add(static_cast<int>(i + 1), kRuleNoThrow,
              "the library is exception-free; return Status instead of "
              "throwing");
    }
  }
}

// --- rule: include-guard ----------------------------------------------------

void CheckIncludeGuard(const RuleContext& ctx) {
  if (!IsHeaderPath(ctx.rel_path)) return;
  const std::string expected = ExpectedGuard(ctx.rel_path);
  int ifndef_line = 0;
  std::string actual;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    std::size_t pos = line.find_first_not_of(" \t");
    if (pos == std::string::npos) continue;
    if (line.compare(pos, 12, "#pragma once") == 0) {
      ctx.Add(static_cast<int>(i + 1), kRuleIncludeGuard,
              "use a CCDB_..._H_ include guard, not #pragma once (expected " +
                  expected + ")");
      return;
    }
    if (line.compare(pos, 7, "#ifndef") == 0) {
      ifndef_line = static_cast<int>(i + 1);
      std::size_t b = line.find_first_not_of(" \t", pos + 7);
      if (b != std::string::npos) {
        std::size_t e = b;
        while (e < line.size() && IsWordChar(line[e])) ++e;
        actual = line.substr(b, e - b);
      }
      // The guard must be #define'd on the next non-blank line.
      std::size_t j = i + 1;
      while (j < ctx.code_lines.size() &&
             ctx.code_lines[j].find_first_not_of(" \t") ==
                 std::string::npos) {
        ++j;
      }
      const bool defined =
          j < ctx.code_lines.size() &&
          FindIdent(ctx.code_lines[j], actual) != std::string::npos &&
          ctx.code_lines[j].find("#define") != std::string::npos;
      if (actual != expected) {
        ctx.Add(ifndef_line, kRuleIncludeGuard,
                "include guard " + actual + " does not match path (expected " +
                    expected + ")");
      } else if (!defined) {
        ctx.Add(ifndef_line, kRuleIncludeGuard,
                "#ifndef " + actual + " is not followed by its #define");
      }
      return;
    }
    // First non-blank code line is neither a guard nor pragma once.
    ctx.Add(static_cast<int>(i + 1), kRuleIncludeGuard,
            "header has no include guard (expected " + expected + ")");
    return;
  }
  ctx.Add(1, kRuleIncludeGuard,
          "header has no include guard (expected " + expected + ")");
}

// --- rule: using-namespace-header --------------------------------------------

void CheckUsingNamespaceHeader(const RuleContext& ctx) {
  if (!IsHeaderPath(ctx.rel_path)) return;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::size_t pos = FindIdent(ctx.code_lines[i], "using");
    if (pos == std::string::npos) continue;
    const std::size_t ns = FindIdent(ctx.code_lines[i], "namespace", pos);
    if (ns == std::string::npos) continue;
    // `using namespace` — but `using x = namespace` is not a thing and
    // `namespace foo { using bar::Baz; }` has `namespace` before `using`.
    std::string_view between(ctx.code_lines[i].data() + pos + 5,
                             ns - pos - 5);
    if (between.find_first_not_of(" \t") == std::string_view::npos) {
      ctx.Add(static_cast<int>(i + 1), kRuleUsingNamespaceHeader,
              "`using namespace` in a header leaks into every includer");
    }
  }
}

// --- rule: raw-file-io ------------------------------------------------------

void CheckRawFileIo(const RuleContext& ctx) {
  // Every durable byte must flow through the common/io Fs seam so fault
  // injection and the recovery ladder actually cover it. Only the Fs
  // implementation itself and tests (which set up fixtures directly) may
  // touch stdio / fstream.
  if (InDir(ctx.rel_path, "src/common/io.")) return;
  if (InDir(ctx.rel_path, "tests/")) return;
  const std::string_view kBanned[] = {"fopen", "freopen", "ofstream",
                                      "ifstream", "fstream"};
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    // Skip preprocessor lines so `#include <fstream>` left behind by a
    // refactor is not itself a finding (the uses are).
    const std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '#') continue;
    for (std::string_view ident : kBanned) {
      if (HasIdent(line, ident)) {
        ctx.Add(static_cast<int>(i + 1), kRuleRawFileIo,
                std::string("file I/O must flow through the common/io Fs "
                            "layer (fault injection + recovery ladder), "
                            "not ") +
                    std::string(ident));
        break;  // one diagnostic per line
      }
    }
  }
}

// --- rule: raw-mutex --------------------------------------------------------

void CheckRawMutex(const RuleContext& ctx) {
  // Every lock in the library goes through the annotated capability layer
  // (common/mutex.h): Clang's thread-safety analysis and the lock-rank
  // deadlock checks only see Mutex/MutexLock/CondVar, so a raw std::mutex
  // is an unanalyzed, unranked blind spot. Only the wrapper itself may
  // touch the std primitives; tests may build ad-hoc fixtures.
  if (InDir(ctx.rel_path, "src/common/mutex.")) return;
  if (InDir(ctx.rel_path, "src/common/thread_annotations.h")) return;
  if (InDir(ctx.rel_path, "tests/")) return;
  const std::string_view kBanned[] = {
      "std::mutex",          "std::shared_mutex",
      "std::timed_mutex",    "std::shared_timed_mutex",
      "std::recursive_mutex", "std::recursive_timed_mutex",
      "std::lock_guard",     "std::unique_lock",
      "std::scoped_lock",    "std::shared_lock",
      "std::condition_variable", "std::condition_variable_any"};
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    for (std::string_view ident : kBanned) {
      std::size_t pos = line.find(ident);
      bool hit = false;
      while (pos != std::string::npos && !hit) {
        const std::size_t end = pos + ident.size();
        if (end >= line.size() || !IsWordChar(line[end])) hit = true;
        pos = line.find(ident, end);
      }
      if (hit) {
        ctx.Add(static_cast<int>(i + 1), kRuleRawMutex,
                std::string("locking goes through the annotated "
                            "common/mutex.h capability layer (Mutex, "
                            "MutexLock, CondVar), not ") +
                    std::string(ident));
        break;  // one diagnostic per line
      }
    }
  }
}

// --- rule: unguarded-member -------------------------------------------------

/// True when `line` declares a data member of one of the self-synchronized
/// or synchronization-primitive types that need no GUARDED_BY.
bool IsExemptMemberType(const std::string& line) {
  for (std::string_view type :
       {std::string_view("Mutex"), std::string_view("CondVar"),
        std::string_view("ThreadPool")}) {
    if (HasIdent(line, type)) return true;
  }
  return false;
}

void CheckUnguardedMember(const RuleContext& ctx) {
  // Convention (DESIGN.md §13): within a class, the Mutex member is
  // declared BEFORE the state it protects, and every data member declared
  // after a Mutex carries a GUARDED_BY — or an allow(unguarded-member)
  // stating why it needs none (internally synchronized, ctor-only, ...).
  // This is a line-based heuristic, not a parser: it scans from each
  // Mutex member declaration to the enclosing closing brace and flags
  // brace-level member declarations without an annotation.
  if (!InDir(ctx.rel_path, "src/")) return;
  if (InDir(ctx.rel_path, "src/common/mutex.")) return;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& decl = ctx.code_lines[i];
    const bool is_mutex_decl =
        HasIdent(decl, "Mutex") && !HasIdent(decl, "MutexLock") &&
        decl.find(';') != std::string::npos &&
        decl.find('(') == std::string::npos;
    if (!is_mutex_decl) continue;
    int depth = 0;
    for (std::size_t j = i + 1; j < ctx.code_lines.size(); ++j) {
      const std::string& line = ctx.code_lines[j];
      int line_depth = depth;
      bool closes_scope = false;
      for (char c : line) {
        if (c == '{') ++line_depth;
        if (c == '}') {
          --line_depth;
          if (line_depth < 0) closes_scope = true;
        }
      }
      if (closes_scope) break;  // end of the enclosing class/struct
      const bool braced_line =
          line.find('{') != std::string::npos ||
          line.find('}') != std::string::npos;
      if (depth == 0 && !braced_line && EndsWith(line, ";") &&
          line.find('(') == std::string::npos && !IsExemptMemberType(line)) {
        // Two identifiers minimum: a type and a member name.
        std::size_t words = 0;
        bool in_word = false;
        for (char c : line) {
          const bool w = IsWordChar(c);
          if (w && !in_word) ++words;
          in_word = w;
        }
        if (words >= 2 && !HasIdent(line, "GUARDED_BY") &&
            !HasIdent(line, "PT_GUARDED_BY") && !HasIdent(line, "using") &&
            !HasIdent(line, "static") && !HasIdent(line, "friend") &&
            !HasIdent(line, "enum") && !HasIdent(line, "typedef")) {
          ctx.Add(static_cast<int>(j + 1), kRuleUnguardedMember,
                  "data member declared after a Mutex must be GUARDED_BY it "
                  "(or carry an allow(unguarded-member) with the reason it "
                  "needs no lock)");
        }
      }
      depth = line_depth;
    }
  }
}

// --- rule: status-nodiscard ---------------------------------------------------

void CheckStatusNodiscard(const RuleContext& ctx) {
  // (a) The Status/StatusOr class definitions themselves must carry the
  // class-level [[nodiscard]] that turns every dropped return into a
  // compile error — the annotation is the enforcement root; losing it
  // silently disarms the whole tier.
  if (ctx.rel_path == "src/common/status.h") {
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
      const std::string& line = ctx.code_lines[i];
      const std::size_t cls = FindIdent(line, "class");
      if (cls == std::string::npos) continue;
      const bool is_status = FindIdent(line, "Status", cls) !=
                             std::string::npos;
      const bool is_status_or = FindIdent(line, "StatusOr", cls) !=
                                std::string::npos;
      if (!is_status && !is_status_or) continue;
      if (line.find(';') != std::string::npos) continue;  // forward decl
      if (line.find("nodiscard") == std::string::npos) {
        ctx.Add(static_cast<int>(i + 1), kRuleStatusNodiscard,
                "Status/StatusOr must be declared class [[nodiscard]] — "
                "this is what makes dropped Status a compile error");
      }
    }
  }

  // (b) Explicit discards need a visible justification: `(void)expr` or
  // `static_cast<void>(expr)` without a ccdb-lint allow() comment fails.
  // The compiler accepts the cast silently; the lint layer demands the
  // rationale the cast hides.
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    std::size_t pos = 0;
    while ((pos = line.find("(void)", pos)) != std::string::npos) {
      std::size_t after = pos + 6;
      while (after < line.size() &&
             std::isspace(static_cast<unsigned char>(line[after])) != 0) {
        ++after;
      }
      // `f(void)` parameter lists are followed by ')' / '{' / ';'; a
      // discard cast is followed by the discarded expression.
      if (after < line.size() &&
          (IsWordChar(line[after]) || line[after] == '(' ||
           line[after] == '*' || line[after] == ':')) {
        ctx.Add(static_cast<int>(i + 1), kRuleStatusNodiscard,
                "explicit (void) discard requires a `// ccdb-lint: "
                "allow(status-nodiscard)` comment with a one-line rationale");
      }
      pos = after;
    }
    if (line.find("static_cast<void>") != std::string::npos) {
      ctx.Add(static_cast<int>(i + 1), kRuleStatusNodiscard,
              "explicit static_cast<void> discard requires a `// ccdb-lint: "
              "allow(status-nodiscard)` comment with a one-line rationale");
    }
  }
}

}  // namespace

std::vector<std::string> AllRules() {
  return {kRuleStatusNodiscard, kRuleRngSource,
          kRuleRawThread,       kRuleBlockingWait,
          kRuleNoThrow,         kRuleIncludeGuard,
          kRuleUsingNamespaceHeader, kRuleRawFileIo,
          kRuleRawMutex,        kRuleUnguardedMember};
}

std::vector<Finding> LintContents(const std::string& rel_path,
                                  std::string_view contents) {
  const std::vector<std::string> original = SplitLines(contents);
  const std::vector<std::string> code_lines = SplitLines(CodeView(contents));
  const std::vector<std::set<std::string>> allows = ParseAllows(original);

  std::vector<Finding> findings;
  RuleContext ctx{rel_path, code_lines, findings};
  CheckStatusNodiscard(ctx);
  CheckRngSource(ctx);
  CheckRawThread(ctx);
  CheckBlockingWait(ctx);
  CheckNoThrow(ctx);
  CheckIncludeGuard(ctx);
  CheckUsingNamespaceHeader(ctx);
  CheckRawFileIo(ctx);
  CheckRawMutex(ctx);
  CheckUnguardedMember(ctx);

  // An allow() on a line with code suppresses that line; an allow() on a
  // comment-only line suppresses the next line carrying code, so wrapped
  // rationale comments may sit between the allow() and the code it covers.
  std::vector<std::set<std::string>> effective(allows.size());
  for (std::size_t i = 0; i < allows.size(); ++i) {
    if (allows[i].empty()) continue;
    const bool comment_only =
        i < code_lines.size() &&
        code_lines[i].find_first_not_of(" \t") == std::string::npos;
    std::size_t target = i;
    if (comment_only) {
      std::size_t j = i + 1;
      while (j < code_lines.size() &&
             code_lines[j].find_first_not_of(" \t") == std::string::npos) {
        ++j;
      }
      if (j >= allows.size()) continue;  // trailing comment, nothing to cover
      target = j;
    }
    effective[target].insert(allows[i].begin(), allows[i].end());
  }

  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    const std::size_t idx = static_cast<std::size_t>(f.line - 1);
    if (idx < effective.size() && effective[idx].count(f.rule) > 0) continue;
    kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

bool LintFile(const std::string& root, const std::string& rel_path,
              std::vector<Finding>& findings) {
  const std::filesystem::path full =
      std::filesystem::path(root) / rel_path;
  // ccdb-lint: allow(raw-file-io) — the checker reads source trees outside
  // the library's durable-state paths; routing it through Fs buys nothing.
  std::ifstream in(full, std::ios::binary);
  if (!in) {
    findings.push_back(
        Finding{rel_path, 0, "io-error", "cannot read file"});
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::vector<Finding> file_findings = LintContents(rel_path, buffer.str());
  findings.insert(findings.end(),
                  std::make_move_iterator(file_findings.begin()),
                  std::make_move_iterator(file_findings.end()));
  return true;
}

std::vector<Finding> LintTree(const std::string& root,
                              const std::vector<std::string>& dirs) {
  namespace fs = std::filesystem;
  std::vector<Finding> findings;
  std::vector<std::string> rel_paths;
  for (const std::string& dir : dirs) {
    const fs::path base = fs::path(root) / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(base, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) break;
      if (it->is_directory() &&
          it->path().filename() == "lint_fixtures") {
        // Deliberately-broken fixtures are linted by tests/lint_test.cc,
        // never by the tree gate.
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      const std::string rel =
          fs::relative(it->path(), root).generic_string();
      rel_paths.push_back(rel);
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());
  for (const std::string& rel : rel_paths) {
    LintFile(root, rel, findings);
  }
  std::sort(findings.begin(), findings.end());
  return findings;
}

std::set<std::string> LoadBaseline(const std::string& path, bool& ok) {
  std::set<std::string> baseline;
  // ccdb-lint: allow(raw-file-io) — baseline file of the checker itself,
  // not durable library state.
  std::ifstream in(path);
  if (!in) {
    ok = false;
    return baseline;
  }
  ok = true;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos || line[b] == '#') continue;
    baseline.insert(line.substr(b));
  }
  return baseline;
}

std::string BaselineKey(const Finding& finding) {
  return finding.path + ":" + std::to_string(finding.line) + ":" +
         finding.rule;
}

std::string FormatFinding(const Finding& finding) {
  return finding.path + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace ccdb::lint
