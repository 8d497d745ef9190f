#include "tools/safeloc_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace safeloc::lint {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind { kIdentifier, kNumber, kString, kPunct };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

struct Suppression {
  std::string rule;
  std::string reason;
};

struct LexResult {
  std::vector<Token> tokens;
  /// line -> allow() directives found in comments on that line.
  std::map<int, std::vector<Suppression>> suppressions;
  /// `// lint-as: <path>` override (empty = none).
  std::string lint_as;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Scans comment text for `safeloc-lint: allow(Rn reason)` directives (any
/// number per comment) and a `lint-as: <path>` override.
void scan_comment(std::string_view text, int line, LexResult& out) {
  constexpr std::string_view kAllow = "safeloc-lint: allow(";
  std::size_t pos = 0;
  while ((pos = text.find(kAllow, pos)) != std::string_view::npos) {
    pos += kAllow.size();
    const std::size_t close = text.find(')', pos);
    if (close == std::string_view::npos) break;
    std::string_view body = text.substr(pos, close - pos);
    const std::size_t space = body.find(' ');
    Suppression s;
    s.rule = std::string(body.substr(0, space));
    if (space != std::string_view::npos) {
      s.reason = std::string(body.substr(space + 1));
    }
    if (!s.rule.empty()) out.suppressions[line].push_back(std::move(s));
    pos = close + 1;
  }
  constexpr std::string_view kLintAs = "lint-as:";
  if (out.lint_as.empty()) {
    const std::size_t at = text.find(kLintAs);
    if (at != std::string_view::npos) {
      std::size_t begin = at + kLintAs.size();
      while (begin < text.size() && text[begin] == ' ') ++begin;
      std::size_t end = begin;
      while (end < text.size() &&
             !std::isspace(static_cast<unsigned char>(text[end]))) {
        ++end;
      }
      out.lint_as = std::string(text.substr(begin, end - begin));
    }
  }
}

LexResult lex(std::string_view src) {
  LexResult out;
  std::size_t i = 0;
  int line = 1;
  const std::size_t n = src.size();

  auto advance_over = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k) {
      if (src[i] == '\n') ++line;
      ++i;
    }
  };

  while (i < n) {
    const char c = src[i];
    // Whitespace.
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance_over(1);
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t end = src.find('\n', i);
      const std::size_t stop = end == std::string_view::npos ? n : end;
      scan_comment(src.substr(i, stop - i), line, out);
      advance_over(stop - i);
      continue;
    }
    // Block comment (suppressions attach to its first line).
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t end = src.find("*/", i + 2);
      const std::size_t stop = end == std::string_view::npos ? n : end + 2;
      scan_comment(src.substr(i, stop - i), line, out);
      advance_over(stop - i);
      continue;
    }
    // Preprocessor directive: skip to an unescaped newline. Include paths
    // and macro bodies are not rule territory for a token linter.
    if (c == '#') {
      while (i < n) {
        const std::size_t end = src.find('\n', i);
        if (end == std::string_view::npos) {
          advance_over(n - i);
          break;
        }
        const bool continued = end > i && src[end - 1] == '\\';
        advance_over(end - i + 1);
        if (!continued) break;
      }
      continue;
    }
    // Raw string literal: R"delim( ... )delim" — no escapes inside.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      while (j < n && src[j] != '(') ++j;
      std::string closer = ")";
      closer += src.substr(i + 2, j - (i + 2));
      closer += '"';
      const std::size_t end = src.find(closer, j);
      const std::size_t stop =
          end == std::string_view::npos ? n : end + closer.size();
      out.tokens.push_back({TokKind::kString, "", line});
      advance_over(stop - i);
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int start_line = line;
      advance_over(1);
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) advance_over(1);
        advance_over(1);
      }
      advance_over(1);  // closing quote
      out.tokens.push_back({TokKind::kString, "", start_line});
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out.tokens.push_back(
          {TokKind::kIdentifier, std::string(src.substr(i, j - i)), line});
      advance_over(j - i);
      continue;
    }
    // Number (coarse: digits, dots, exponents, digit separators).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P')))) {
        ++j;
      }
      out.tokens.push_back(
          {TokKind::kNumber, std::string(src.substr(i, j - i)), line});
      advance_over(j - i);
      continue;
    }
    // Punctuation. Only `::` and `->` are fused (the rules key on them);
    // everything else stays a single char so template `>>` closes cleanly.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({TokKind::kPunct, "::", line});
      advance_over(2);
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({TokKind::kPunct, "->", line});
      advance_over(2);
      continue;
    }
    if (c == '<' && i + 1 < n && src[i + 1] == '<') {
      out.tokens.push_back({TokKind::kPunct, "<<", line});
      advance_over(2);
      continue;
    }
    out.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
    advance_over(1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index of the matching closer for the opener at `open`, or npos.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          std::string_view opener, std::string_view closer) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], opener)) ++depth;
    else if (is_punct(toks[i], closer) && --depth == 0) return i;
  }
  return std::string_view::npos;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool path_starts_with(std::string_view path, std::string_view prefix) {
  return starts_with(path, prefix);
}

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kCatalog = {
    {"R1", "raw-getenv",
     "raw ::getenv bypasses strict env parsing (typo'd knobs must fail "
     "loudly, not parse to 0); only src/util/config.cpp may call it",
     "route through util::env_string / env_optional / env_int_strict / "
     "env_double_strict (src/util/config.h)"},
    {"R2", "nondeterminism",
     "core/, fl/ and nn/ guarantee bit-identical replays; wall-clock and "
     "platform RNG seeds (rand, srand, random_device, time(), "
     "system_clock) and contraction-dependent std::fma break that",
     "seed util::Rng from the ScenarioSpec; use steady_clock only for "
     "durations outside the deterministic core; keep mul+add separate "
     "(-ffp-contract=off is pinned repo-wide)"},
    {"R3", "unexhausted-decoder",
     "every SFRP wire decoder and SFST/SFPM top-level loader must call "
     "util::expect_exhausted before returning, so trailing bytes (format "
     "skew, torn writes) fail loudly instead of being silently ignored",
     "call util::expect_exhausted(in, context) after the last read"},
    {"R4", "naked-lock",
     "manual .lock()/.unlock() leaks the lock on every exception path "
     "between them",
     "hold the mutex with std::scoped_lock / lock_guard / unique_lock"},
    {"R5", "unordered-serialization",
     "iterating an unordered container into JSON/CSV/wire output makes the "
     "serialized bytes hash-seed-dependent — goldens and cross-process "
     "diffs go nondeterministic",
     "serialize from std::map, or copy keys out and sort before writing"},
    {"R6", "throwing-rollback",
     "abort_*/rollback* methods run on 2PC failure paths (often from "
     "destructors or catch blocks); if they can throw, an abort can "
     "terminate the process mid-recovery",
     "declare the method noexcept and keep its body exception-free"},
    {"R7", "unguarded-mutex",
     "a mutex data member in a class whose body carries no "
     "SAFELOC_GUARDED_BY protects nothing the thread-safety analyzer can "
     "see — lock discipline silently erodes as fields are added",
     "annotate every field the mutex protects with SAFELOC_GUARDED_BY(mu); "
     "a mutex that guards no data by design needs an allow(R7) stating the "
     "invariant"},
    {"R8", "predicate-less-wait",
     "a condition-variable wait without a predicate does not recheck its "
     "condition after spurious or stolen wakeups, so the caller can resume "
     "on state that no longer holds",
     "fold the condition into the wait: cv.wait(mu, [&] { return ready; }); "
     "wait_for/wait_until take the predicate as a third argument and "
     "return its value on timeout"},
    {"R9", "raw-sync-primitive",
     "raw std mutexes, RAII guards, condition variables and detached "
     "threads bypass src/util/sync.h, so clang -Wthread-safety cannot see "
     "the locking at all; detach() also orphans threads past shutdown",
     "use sync::Mutex / sync::MutexLock / sync::CondVar / "
     "sync::ReleasableLock (src/util/sync.h) and join every thread"},
};

const RuleInfo& rule(std::string_view id) {
  for (const RuleInfo& r : kCatalog) {
    if (id == r.id) return r;
  }
  return kCatalog.front();
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

struct RuleContext {
  std::string_view path;  ///< effective display path (after lint-as)
  const std::vector<Token>& toks;
  std::vector<Finding>& findings;

  void add(std::string_view id, int line) const {
    const RuleInfo& info = rule(id);
    Finding f;
    f.line = line;
    f.rule = std::string(id);
    f.message = std::string(info.invariant) + " — " + info.fixit;
    findings.push_back(std::move(f));
  }
};

/// R1: identifier `getenv` called anywhere but src/util/config.cpp.
void rule_r1(const RuleContext& ctx) {
  if (ctx.path == "src/util/config.cpp") return;
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (is_ident(toks[i], "getenv") && is_punct(toks[i + 1], "(")) {
      ctx.add("R1", toks[i].line);
    }
  }
}

/// R2: nondeterminism sources inside the bit-identical layers.
void rule_r2(const RuleContext& ctx) {
  if (!path_starts_with(ctx.path, "src/core/") &&
      !path_starts_with(ctx.path, "src/fl/") &&
      !path_starts_with(ctx.path, "src/nn/")) {
    return;
  }
  static const std::set<std::string_view> kBannedCalls = {
      "rand", "srand", "time", "fma", "fmaf"};
  static const std::set<std::string_view> kBannedNames = {
      "random_device", "system_clock"};
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    if (kBannedNames.count(toks[i].text) != 0) {
      ctx.add("R2", toks[i].line);
      continue;
    }
    if (i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
        kBannedCalls.count(toks[i].text) != 0) {
      // Member access (obj.time()) is someone's own API, and a preceding
      // type name (int rand() {...}) is a declaration of an unrelated
      // function — only flag free or ::-qualified CALLS. Keywords that
      // introduce an expression are not type names.
      static const std::set<std::string_view> kExprKeywords = {
          "return",   "co_return", "co_await", "co_yield",
          "throw",    "case",      "else",     "do"};
      const bool after_type_name =
          i > 0 && toks[i - 1].kind == TokKind::kIdentifier &&
          kExprKeywords.count(toks[i - 1].text) == 0;
      if (i > 0 && (is_punct(toks[i - 1], ".") ||
                    is_punct(toks[i - 1], "->") || after_type_name)) {
        continue;
      }
      ctx.add("R2", toks[i].line);
    }
  }
}

/// R3: decoder definitions that never call expect_exhausted. Scope: any
/// `decode_*` definition under src/serve/remote/, plus the top-level
/// whole-stream loaders (`load`) of the SFST model store and SFPM partition
/// map. Embedded loaders (StateDict::load, read_model_record) are
/// deliberately out of scope — their streams continue past them.
void rule_r3(const RuleContext& ctx) {
  const bool wire_scope = path_starts_with(ctx.path, "src/serve/remote/");
  const bool store_scope = ctx.path == "src/serve/model_store.cpp" ||
                           ctx.path == "src/serve/partition.cpp";
  if (!wire_scope && !store_scope) return;
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        !is_punct(toks[i + 1], "(")) {
      continue;
    }
    const bool decoder = wire_scope && starts_with(toks[i].text, "decode_");
    const bool loader = store_scope && toks[i].text == "load";
    if (!decoder && !loader) continue;
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == std::string_view::npos) continue;
    // A definition follows its parameter list with (possibly qualified)
    // specifiers then `{`; a call site hits `;`, an operator, or `)` first.
    std::size_t j = close + 1;
    static const std::set<std::string_view> kSpecifiers = {
        "const", "noexcept", "override", "final", "&", "&&"};
    while (j < toks.size() &&
           kSpecifiers.count(toks[j].text) != 0) {
      ++j;
    }
    if (j >= toks.size() || !is_punct(toks[j], "{")) continue;
    const std::size_t body_end = match_forward(toks, j, "{", "}");
    const std::size_t stop =
        body_end == std::string_view::npos ? toks.size() : body_end;
    bool exhausted = false;
    for (std::size_t k = j; k < stop; ++k) {
      if (is_ident(toks[k], "expect_exhausted")) {
        exhausted = true;
        break;
      }
    }
    if (!exhausted) ctx.add("R3", toks[i].line);
  }
}

/// R4: member-access .lock() / .unlock() — the RAII-less idiom.
void rule_r4(const RuleContext& ctx) {
  const auto& toks = ctx.toks;
  for (std::size_t i = 2; i < toks.size(); ++i) {
    if (!is_punct(toks[i], "(")) continue;
    const Token& name = toks[i - 1];
    if (name.kind != TokKind::kIdentifier ||
        (name.text != "lock" && name.text != "unlock")) {
      continue;
    }
    if (is_punct(toks[i - 2], ".") || is_punct(toks[i - 2], "->")) {
      ctx.add("R4", name.line);
    }
  }
}

/// R5: range-for over a variable declared as an unordered container, whose
/// loop body feeds a serializer (write_pod/write_string/to_json/... or <<).
void rule_r5(const RuleContext& ctx) {
  const auto& toks = ctx.toks;
  // Pass 1: names declared with unordered_map/unordered_set in this TU.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "unordered_map") &&
        !is_ident(toks[i], "unordered_set")) {
      continue;
    }
    std::size_t j = i + 1;
    if (j >= toks.size() || !is_punct(toks[j], "<")) continue;
    const std::size_t close = match_forward(toks, j, "<", ">");
    if (close == std::string_view::npos) continue;
    j = close + 1;
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
            is_ident(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdentifier) {
      unordered_names.insert(toks[j].text);
    }
  }
  if (unordered_names.empty()) return;
  // Pass 2: range-fors whose range expression names one of them.
  static const std::set<std::string_view> kSerializers = {
      "write_pod", "write_string", "write_json", "to_json", "to_csv",
      "append_json", "append_csv", "write_row"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == std::string_view::npos) continue;
    // The range-for colon sits at paren depth 1 (`::` is a distinct token).
    std::size_t colon = std::string_view::npos;
    int depth = 0;
    for (std::size_t k = i + 1; k < close; ++k) {
      if (is_punct(toks[k], "(")) ++depth;
      else if (is_punct(toks[k], ")")) --depth;
      else if (depth == 1 && is_punct(toks[k], ":")) {
        colon = k;
        break;
      }
    }
    if (colon == std::string_view::npos) continue;
    bool over_unordered = false;
    for (std::size_t k = colon + 1; k < close; ++k) {
      if (toks[k].kind == TokKind::kIdentifier &&
          unordered_names.count(toks[k].text) != 0) {
        over_unordered = true;
        break;
      }
    }
    if (!over_unordered) continue;
    // Loop body: braced block or single statement.
    std::size_t body_begin = close + 1;
    std::size_t body_end;
    if (body_begin < toks.size() && is_punct(toks[body_begin], "{")) {
      body_end = match_forward(toks, body_begin, "{", "}");
      if (body_end == std::string_view::npos) body_end = toks.size();
    } else {
      body_end = body_begin;
      while (body_end < toks.size() && !is_punct(toks[body_end], ";")) {
        ++body_end;
      }
    }
    for (std::size_t k = body_begin; k < body_end; ++k) {
      if (is_punct(toks[k], "<<") ||
          (toks[k].kind == TokKind::kIdentifier &&
           kSerializers.count(toks[k].text) != 0)) {
        ctx.add("R5", toks[i].line);
        break;
      }
    }
  }
}

/// R6: declarations/definitions of abort_*/rollback* methods without
/// noexcept. Call sites (preceded by `.`/`->`, or inside an expression) are
/// skipped via a declarator-context heuristic on the preceding tokens.
void rule_r6(const RuleContext& ctx) {
  const auto& toks = ctx.toks;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    const Token& name = toks[i];
    if (name.kind != TokKind::kIdentifier ||
        (!starts_with(name.text, "abort_") &&
         !starts_with(name.text, "rollback"))) {
      continue;
    }
    if (!is_punct(toks[i + 1], "(")) continue;
    // Walk back over a qualified-name chain (Class::abort_x) to the token
    // introducing it; a declaration is preceded by a type (identifier, `>`,
    // `&`, `*`), a call by `.`/`->`/operators/statement punctuation.
    std::size_t b = i;
    while (b >= 2 && is_punct(toks[b - 1], "::") &&
           toks[b - 2].kind == TokKind::kIdentifier) {
      b -= 2;
    }
    if (b == 0) continue;
    const Token& before = toks[b - 1];
    const bool declarator_context =
        before.kind == TokKind::kIdentifier || is_punct(before, ">") ||
        is_punct(before, "&") || is_punct(before, "*");
    if (!declarator_context) continue;
    if (before.kind == TokKind::kIdentifier &&
        (before.text == "return" || before.text == "co_return" ||
         before.text == "co_await" || before.text == "throw")) {
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == std::string_view::npos) continue;
    // Between `)` and the `{`/`;`/`=` ending the declarator, look for
    // noexcept. Anything unexpected (`,`, `)`, operators) means this was an
    // expression after all — skip.
    bool noexcept_found = false;
    bool is_declaration = false;
    for (std::size_t k = close + 1; k < toks.size(); ++k) {
      const Token& t = toks[k];
      if (is_ident(t, "noexcept")) {
        noexcept_found = true;
        if (k + 1 < toks.size() && is_punct(toks[k + 1], "(")) {
          const std::size_t ne_close = match_forward(toks, k + 1, "(", ")");
          if (ne_close == std::string_view::npos) break;
          k = ne_close;
        }
        continue;
      }
      if (is_ident(t, "const") || is_ident(t, "override") ||
          is_ident(t, "final") || is_punct(t, "&") || is_punct(t, "&&")) {
        continue;
      }
      if (is_punct(t, "{") || is_punct(t, ";") || is_punct(t, "=")) {
        is_declaration = true;
        break;
      }
      break;  // expression context (e.g. `+`, `,`, `)`) — not a declarator
    }
    if (is_declaration && !noexcept_found) ctx.add("R6", name.line);
  }
}

/// R7: a sync::Mutex / std::mutex data member inside a class/struct whose
/// body carries no SAFELOC_GUARDED_BY at all. Class-level by design: one
/// annotated sibling proves the author engaged the analyzer; zero means the
/// mutex is decoration. Fires only when the class holds at least one other
/// data member (a mutex alone has nothing to guard), and only under src/ —
/// tests and tools build ad-hoc mutexes whose guarded set is the local
/// scope. src/util/sync.h defines the primitives and is exempt.
void rule_r7(const RuleContext& ctx) {
  if (!path_starts_with(ctx.path, "src/") ||
      ctx.path == "src/util/sync.h") {
    return;
  }
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "class") && !is_ident(toks[i], "struct")) {
      continue;
    }
    // `enum class` and `template <class T>` introduce no class body.
    if (i > 0 && (is_ident(toks[i - 1], "enum") ||
                  is_punct(toks[i - 1], "<") || is_punct(toks[i - 1], ","))) {
      continue;
    }
    // Find the body `{` before any `;` (skips forward declarations).
    std::size_t open = i + 1;
    while (open < toks.size() && !is_punct(toks[open], "{") &&
           !is_punct(toks[open], ";")) {
      ++open;
    }
    if (open >= toks.size() || !is_punct(toks[open], "{")) continue;
    const std::size_t body_end = match_forward(toks, open, "{", "}");
    if (body_end == std::string_view::npos) continue;

    bool has_guarded = false;
    for (std::size_t k = open; k < body_end; ++k) {
      if (is_ident(toks[k], "SAFELOC_GUARDED_BY") ||
          is_ident(toks[k], "SAFELOC_PT_GUARDED_BY")) {
        has_guarded = true;
        break;
      }
    }
    if (has_guarded) continue;

    // Walk depth-1 statements: mutex members to flag, any other data
    // member as evidence the class holds state worth annotating.
    std::vector<int> mutex_lines;
    std::size_t data_members = 0;
    const auto classify = [&](std::size_t stmt, std::size_t end) {
      // Skip an access-specifier prefix fused into the statement.
      if (stmt + 1 < end && is_punct(toks[stmt + 1], ":") &&
          (is_ident(toks[stmt], "public") ||
           is_ident(toks[stmt], "private") ||
           is_ident(toks[stmt], "protected"))) {
        stmt += 2;
      }
      if (stmt >= end || end - stmt < 2) return;
      if (is_ident(toks[stmt], "using") || is_ident(toks[stmt], "typedef") ||
          is_ident(toks[stmt], "friend") || is_ident(toks[stmt], "static") ||
          is_ident(toks[stmt], "class") || is_ident(toks[stmt], "struct") ||
          is_ident(toks[stmt], "enum") || is_ident(toks[stmt], "union")) {
        return;
      }
      int mutex_line = 0;
      bool has_paren = false;
      for (std::size_t t = stmt; t < end; ++t) {
        if (is_punct(toks[t], "(")) has_paren = true;
        if (t + 2 < end && is_punct(toks[t + 1], "::") &&
            ((is_ident(toks[t], "sync") && is_ident(toks[t + 2], "Mutex")) ||
             (is_ident(toks[t], "std") && is_ident(toks[t + 2], "mutex")))) {
          mutex_line = toks[t + 2].line;
        }
      }
      if (has_paren) return;  // function declarator, not a data member
      if (mutex_line != 0) {
        mutex_lines.push_back(mutex_line);
      } else {
        ++data_members;
      }
    };
    std::size_t stmt = open + 1;
    for (std::size_t k = open + 1; k < body_end; ++k) {
      if (is_punct(toks[k], "{")) {
        // Method body, nested type, or a brace-initialized member. Skip
        // the braced region; classify `T name{init};` by its header.
        const std::size_t close = match_forward(toks, k, "{", "}");
        if (close == std::string_view::npos ||
            close >= body_end) {
          break;
        }
        if (close + 1 < body_end && is_punct(toks[close + 1], ";")) {
          classify(stmt, k);
        }
        k = close;
        stmt = k + 1;
        continue;
      }
      if (!is_punct(toks[k], ";")) continue;
      classify(stmt, k);
      stmt = k + 1;
    }
    if (data_members > 0) {
      for (const int line : mutex_lines) ctx.add("R7", line);
    }
  }
}

/// R8: condition-variable waits without a predicate. A one-argument
/// `.wait(lock)` re-blocks only by luck — spurious and stolen wakeups
/// resume the caller with the condition false; two-argument timed waits
/// share the bug. Zero-argument wait() (futures, latches, barriers) is a
/// different API and is left alone.
void rule_r8(const RuleContext& ctx) {
  const auto& toks = ctx.toks;
  for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
    const Token& name = toks[i];
    if (name.kind != TokKind::kIdentifier) continue;
    const bool plain = name.text == "wait";
    const bool timed = name.text == "wait_for" || name.text == "wait_until";
    if (!plain && !timed) continue;
    if (!is_punct(toks[i - 1], ".") && !is_punct(toks[i - 1], "->")) {
      continue;
    }
    if (!is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == std::string_view::npos) continue;
    // Count top-level arguments: commas at paren depth 1 outside nested
    // braces/brackets (lambda captures and bodies, init lists).
    int paren = 0;
    int brace = 0;
    int bracket = 0;
    std::size_t args = close > i + 2 ? 1 : 0;
    for (std::size_t k = i + 1; k < close; ++k) {
      if (is_punct(toks[k], "(")) ++paren;
      else if (is_punct(toks[k], ")")) --paren;
      else if (is_punct(toks[k], "{")) ++brace;
      else if (is_punct(toks[k], "}")) --brace;
      else if (is_punct(toks[k], "[")) ++bracket;
      else if (is_punct(toks[k], "]")) --bracket;
      else if (paren == 1 && brace == 0 && bracket == 0 &&
               is_punct(toks[k], ",")) {
        ++args;
      }
    }
    if ((plain && args == 1) || (timed && args == 2)) {
      ctx.add("R8", name.line);
    }
  }
}

/// R9: raw standard-library synchronization outside src/util/sync.h. The
/// annotated layer is mandatory — an unannotated std::mutex is invisible
/// to -Wthread-safety, and std::thread::detach orphans a thread past every
/// shutdown joint the servers rely on.
void rule_r9(const RuleContext& ctx) {
  if (ctx.path == "src/util/sync.h") return;
  static const std::set<std::string_view> kRawTypes = {
      "mutex",           "recursive_mutex",
      "timed_mutex",     "recursive_timed_mutex",
      "shared_mutex",    "condition_variable",
      "condition_variable_any",
      "lock_guard",      "unique_lock",
      "scoped_lock",     "shared_lock"};
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (is_ident(toks[i], "std") && is_punct(toks[i + 1], "::") &&
        toks[i + 2].kind == TokKind::kIdentifier &&
        kRawTypes.count(toks[i + 2].text) != 0) {
      ctx.add("R9", toks[i + 2].line);
    }
  }
  for (std::size_t i = 2; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(") && is_ident(toks[i - 1], "detach") &&
        (is_punct(toks[i - 2], ".") || is_punct(toks[i - 2], "->"))) {
      ctx.add("R9", toks[i - 1].line);
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

constexpr std::string_view kScanDirs[] = {"src", "tools", "bench", "examples",
                                          "tests"};

bool lintable_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cpp" || ext == ".cc" || ext == ".hpp";
}

bool in_fixture_corpus(const std::filesystem::path& p) {
  for (const auto& part : p) {
    if (part == "lint_fixtures") return true;
  }
  return false;
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() { return kCatalog; }

FileReport lint_file(std::string_view display_path,
                     std::string_view content) {
  LexResult lexed = lex(content);
  const std::string_view effective_path =
      lexed.lint_as.empty() ? display_path : std::string_view(lexed.lint_as);

  std::vector<Finding> raw;
  const RuleContext ctx{effective_path, lexed.tokens, raw};
  rule_r1(ctx);
  rule_r2(ctx);
  rule_r3(ctx);
  rule_r4(ctx);
  rule_r5(ctx);
  rule_r6(ctx);
  rule_r7(ctx);
  rule_r8(ctx);
  rule_r9(ctx);

  FileReport report;
  for (Finding& f : raw) {
    f.file = std::string(display_path);
    const Suppression* matched = nullptr;
    for (const int line : {f.line, f.line - 1}) {
      const auto it = lexed.suppressions.find(line);
      if (it == lexed.suppressions.end()) continue;
      for (const Suppression& s : it->second) {
        if (s.rule == f.rule) {
          matched = &s;
          break;
        }
      }
      if (matched != nullptr) break;
    }
    if (matched != nullptr) {
      f.suppress_reason = matched->reason;
      report.suppressed.push_back(std::move(f));
    } else {
      report.findings.push_back(std::move(f));
    }
  }
  const auto by_position = [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
  };
  std::sort(report.findings.begin(), report.findings.end(), by_position);
  std::sort(report.suppressed.begin(), report.suppressed.end(), by_position);
  return report;
}

TreeReport lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  TreeReport report;
  // A bad root must be an error, not a silently clean 0-file scan — a
  // misspelled --root in CI would otherwise pass green forever.
  if (std::error_code root_ec;
      !fs::is_directory(fs::path(root), root_ec)) {
    report.errors.push_back("root is not a directory: " + root);
    return report;
  }
  std::vector<fs::path> files;
  for (const std::string_view dir : kScanDirs) {
    const fs::path base = fs::path(root) / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const fs::path& p = it->path();
      if (!lintable_extension(p) || in_fixture_corpus(p)) continue;
      files.push_back(p);
    }
    if (ec) {
      report.errors.push_back("cannot walk " + base.string() + ": " +
                              ec.message());
    }
  }
  std::sort(files.begin(), files.end());

  for (const fs::path& p : files) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      report.errors.push_back("cannot read " + p.string());
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string display =
        fs::path(fs::relative(p, root)).generic_string();
    FileReport file_report = lint_file(display, buffer.str());
    ++report.files_scanned;
    for (Finding& f : file_report.findings) {
      report.findings.push_back(std::move(f));
    }
    for (Finding& f : file_report.suppressed) {
      report.suppressed.push_back(std::move(f));
    }
  }
  return report;
}

std::string format_finding(const Finding& finding, bool suppressed) {
  std::string out = finding.file + ":" + std::to_string(finding.line) +
                    ": " + finding.rule + ": " + finding.message;
  if (suppressed) {
    out += " [suppressed";
    if (!finding.suppress_reason.empty()) {
      out += ": " + finding.suppress_reason;
    }
    out += "]";
  }
  return out;
}

}  // namespace safeloc::lint
