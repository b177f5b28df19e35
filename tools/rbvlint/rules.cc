/**
 * @file
 * rbvlint rule engine implementation.
 *
 * The engine is an AST-lite scanner: it walks the token stream with a
 * brace-matched scope stack (file / namespace / class / enum /
 * function / plain braces) and analyzes one statement at a time. That
 * is deliberately far short of a real C++ front end, but it is exact
 * enough for this codebase's style, fully deterministic, and has no
 * dependencies beyond the standard library.
 */

#include "rbvlint/rules.hh"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

#include "rbvlint/lexer.hh"

namespace rbvlint {

namespace {

const char *const kR1 = "R1-nondet";
const char *const kR2 = "R2-global-state";
const char *const kR3 = "R3-io";
const char *const kR4 = "R4-include";
const char *const kR5 = "R5-units";
const char *const kR6 = "R6-swallow";
const char *const kR7 = "R7-det-iter";
const char *const kR8 = "R8-lock-discipline";
const char *const kR9 = "R9-rng-stream";

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

bool
isHeaderPath(const std::string &path)
{
    return endsWith(path, ".hh") || endsWith(path, ".h") ||
           endsWith(path, ".hpp");
}

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

/** Random engine type names whose default constructor is a fixed,
 *  silently shared seed — banned in favor of explicit seeding. */
const std::set<std::string> &
engineNames()
{
    static const std::set<std::string> names = {
        "mt19937",        "mt19937_64",    "minstd_rand",
        "minstd_rand0",   "ranlux24",      "ranlux48",
        "ranlux24_base",  "ranlux48_base", "knuth_b",
        "default_random_engine",
    };
    return names;
}

const std::set<std::string> &
printfFamily()
{
    static const std::set<std::string> names = {
        "printf", "fprintf", "vprintf", "vfprintf",
        "puts",   "putchar", "fputs",
    };
    return names;
}

/** Integral type tokens R5 considers (Tick is the repo's cycle type). */
const std::set<std::string> &
intTypeNames()
{
    static const std::set<std::string> names = {
        "int",      "long",     "short",    "unsigned", "signed",
        "size_t",   "ptrdiff_t",
        "int8_t",   "int16_t",  "int32_t",  "int64_t",
        "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
        "uintptr_t", "Tick",
    };
    return names;
}

/** Name stems that read as a duration or a memory size. */
const std::vector<std::string> &
unitStems()
{
    static const std::vector<std::string> stems = {
        "interval", "latency",  "period",   "delay",
        "timeout",  "deadline", "quantum",  "duration",
        "capacity", "footprint", "workingset",
    };
    return stems;
}

/** Accepted unit suffixes on field names. */
const std::vector<std::string> &
unitSuffixes()
{
    static const std::vector<std::string> suffixes = {
        "Us", "Ns", "Ms", "Sec", "Cycles", "Ticks",
        "Bytes", "KiB", "MiB", "GiB", "Pct",
    };
    return suffixes;
}

bool
hasUnitSuffix(const std::string &name)
{
    for (const auto &s : unitSuffixes())
        if (endsWith(name, s))
            return true;
    return false;
}

bool
hasUnitStem(const std::string &name)
{
    const std::string low = lowered(name);
    for (const auto &stem : unitStems())
        if (low.find(stem) != std::string::npos)
            return true;
    return false;
}

enum class Scope
{
    File,
    Namespace,
    Class,
    Enum,
    Function,
    Braces, ///< Initializer list, lambda body, or plain block.
};

class Linter
{
  public:
    Linter(const std::string &path, const LexResult &lr,
           const Allowlist &allowlist)
        : path(path), lr(lr), allowlist(allowlist),
          inSrc(startsWith(path, "src/")),
          inStateScope(startsWith(path, "src/sim/") ||
                       startsWith(path, "src/core/") ||
                       startsWith(path, "src/os/")),
          inUnitScope(startsWith(path, "src/sim/") ||
                      startsWith(path, "src/core/")),
          header(isHeaderPath(path))
    {
    }

    std::vector<Violation>
    run()
    {
        if (header)
            checkGuard();
        scanTokens();
        scanCatches();
        walkStatements();
        std::sort(out.begin(), out.end(),
                  [](const Violation &a, const Violation &b) {
                      return a.line != b.line ? a.line < b.line
                                              : a.rule < b.rule;
                  });
        return std::move(out);
    }

  private:
    void
    emit(const std::string &rule, int line, std::string msg)
    {
        if (allowlist.allows(rule, path))
            return;
        for (const auto &p : lr.allows)
            if (p.line == line && ruleMatches(p.rule, rule))
                return;
        out.push_back(Violation{path, line, rule, std::move(msg)});
    }

    // ---- R4 (guard part): raw-line based. -------------------------

    void
    checkGuard()
    {
        std::string firstMacro;
        int directives = 0;
        for (std::size_t i = 0; i < lr.rawLines.size(); ++i) {
            std::istringstream is(lr.rawLines[i]);
            std::string word;
            if (!(is >> word) || word.empty() || word[0] != '#')
                continue;
            ++directives;
            std::string rest;
            if (word == "#")
                is >> word; // "# ifndef" spelling
            if (word == "#pragma" || word == "pragma") {
                if (is >> rest && rest == "once")
                    return; // guarded
            }
            if (directives == 1 &&
                (word == "#ifndef" || word == "ifndef")) {
                is >> firstMacro;
                continue;
            }
            if (directives == 2 && !firstMacro.empty() &&
                (word == "#define" || word == "define")) {
                if ((is >> rest) && rest == firstMacro)
                    return; // classic include guard
            }
            if (directives >= 2)
                break;
        }
        emit(kR4, 1,
             "header is not guarded (#pragma once or a leading "
             "#ifndef/#define include guard required)");
    }

    // ---- R1 / R3: flat token scans. -------------------------------

    const Token *
    tok(std::size_t i) const
    {
        return i < lr.tokens.size() ? &lr.tokens[i] : nullptr;
    }

    bool
    nextIs(std::size_t i, const char *text) const
    {
        const Token *t = tok(i + 1);
        return t && t->text == text;
    }

    /** True if token i is reached via '.' or '->' member access. */
    bool
    memberAccess(std::size_t i) const
    {
        if (i == 0)
            return false;
        const Token &p = lr.tokens[i - 1];
        if (p.kind == Tok::Punct && p.text == ".")
            return true;
        if (i >= 2 && p.kind == Tok::Punct && p.text == ">" &&
            lr.tokens[i - 2].kind == Tok::Punct &&
            lr.tokens[i - 2].text == "-")
            return true;
        return false;
    }

    void
    scanTokens()
    {
        if (!inSrc)
            return;
        for (std::size_t i = 0; i < lr.tokens.size(); ++i) {
            const Token &t = lr.tokens[i];
            if (t.kind != Tok::Ident)
                continue;

            // R1: nondeterminism sources.
            if (t.text == "random_device") {
                emit(kR1, t.line,
                     "std::random_device draws entropy from the "
                     "host; derive seeds from stats::SplitMix64 "
                     "instead");
            } else if (t.text == "system_clock") {
                emit(kR1, t.line,
                     "std::chrono::system_clock reads wall-clock "
                     "time; simulated time comes from the event "
                     "queue");
            } else if ((t.text == "rand" || t.text == "srand") &&
                       nextIs(i, "(") && !memberAccess(i)) {
                emit(kR1, t.line,
                     t.text + "() uses hidden global RNG state; use "
                              "stats::Rng");
            } else if (t.text == "time" && nextIs(i, "(") &&
                       !memberAccess(i)) {
                emit(kR1, t.line,
                     "time() reads the host clock; simulated time "
                     "comes from the event queue");
            } else if (engineNames().count(t.text) &&
                       !memberAccess(i)) {
                checkEngineUse(i);
            }

            // R3: stray output in library code.
            if (t.text == "cout") {
                emit(kR3, t.line,
                     "std::cout in library code; report through "
                     "src/exp/report.hh");
            } else if (printfFamily().count(t.text) &&
                       nextIs(i, "(") && !memberAccess(i)) {
                emit(kR3, t.line,
                     t.text + "() in library code; report through "
                              "src/exp/report.hh");
            }
        }
    }

    /** Index of the `}` matching the `{` at @p open (or past-end). */
    std::size_t
    matchBrace(std::size_t open) const
    {
        int depth = 0;
        for (std::size_t i = open; i < lr.tokens.size(); ++i) {
            const Token &t = lr.tokens[i];
            if (t.kind != Tok::Punct)
                continue;
            if (t.text == "{")
                ++depth;
            else if (t.text == "}" && --depth == 0)
                return i;
        }
        return lr.tokens.size();
    }

    // ---- R6: catch (...) that swallows the exception. -------------

    /**
     * A `catch (...)` whose body neither rethrows, nor calls
     * anything, nor assigns anything has silently discarded the
     * failure — nothing downstream can tell the run degraded. The
     * body must rethrow (`throw;`), record the failure (an
     * assignment), or hand it to a handler (a call).
     */
    void
    scanCatches()
    {
        if (!inSrc)
            return;
        for (std::size_t i = 0; i + 5 < lr.tokens.size(); ++i) {
            const Token &t = lr.tokens[i];
            if (t.kind != Tok::Ident || t.text != "catch")
                continue;
            // The lexer emits single-char puncts: `catch (...)` is
            // `catch` `(` `.` `.` `.` `)`.
            if (!(nextIs(i, "(") && nextIs(i + 1, ".") &&
                  nextIs(i + 2, ".") && nextIs(i + 3, ".") &&
                  nextIs(i + 4, ")") && nextIs(i + 5, "{")))
                continue;
            const std::size_t open = i + 6;
            const std::size_t close = matchBrace(open);
            bool handled = false;
            for (std::size_t k = open + 1; k < close && !handled;
                 ++k) {
                const Token &b = lr.tokens[k];
                if (b.kind == Tok::Ident &&
                    (b.text == "throw" || nextIs(k, "(")))
                    handled = true;
                else if (b.kind == Tok::Punct && b.text == "=")
                    handled = true;
            }
            if (!handled) {
                emit(kR6, t.line,
                     "catch (...) swallows the exception; rethrow, "
                     "record the failure, or call a handler");
            }
        }
    }

    /** Flag default-constructed (unseeded) standard random engines. */
    void
    checkEngineUse(std::size_t i)
    {
        const Token &t = lr.tokens[i];
        const Token *n1 = tok(i + 1);
        const Token *n2 = tok(i + 2);
        // `mt19937 rng;` / `mt19937 rng, ...` — declaration without
        // constructor arguments.
        if (n1 && n1->kind == Tok::Ident && n2 &&
            n2->kind == Tok::Punct &&
            (n2->text == ";" || n2->text == "," || n2->text == ")")) {
            emit(kR1, t.line,
                 "std::" + t.text +
                     " default-constructed (fixed default seed); "
                     "seed it explicitly from the experiment seed");
            return;
        }
        // `mt19937()` / `mt19937{}` — default-seeded temporary.
        if (n1 && n1->kind == Tok::Punct &&
            (n1->text == "(" || n1->text == "{") && n2 &&
            n2->kind == Tok::Punct &&
            (n2->text == ")" || n2->text == "}")) {
            emit(kR1, t.line,
                 "std::" + t.text +
                     " default-seeded temporary; seed it explicitly "
                     "from the experiment seed");
        }
    }

    // ---- R2 / R4 (using) / R5: statement walk. --------------------

    Scope
    scope() const
    {
        return scopes.back();
    }

    bool
    atNamespaceScope() const
    {
        return scope() == Scope::File || scope() == Scope::Namespace;
    }

    static bool
    stmtContains(const std::vector<Token> &stmt, const char *text)
    {
        for (const auto &t : stmt)
            if (t.text == text)
                return true;
        return false;
    }

    void
    walkStatements()
    {
        scopes.assign(1, Scope::File);
        std::vector<Token> stmt;

        for (std::size_t i = 0; i < lr.tokens.size(); ++i) {
            const Token &t = lr.tokens[i];
            if (t.kind != Tok::Punct) {
                stmt.push_back(t);
                continue;
            }
            if (t.text == "{") {
                analyzeStmt(stmt, '{');
                scopes.push_back(classifyBrace(stmt, i));
                stmt.clear();
            } else if (t.text == "}") {
                if (scopes.size() > 1)
                    scopes.pop_back();
                stmt.clear();
            } else if (t.text == ";") {
                analyzeStmt(stmt, ';');
                stmt.clear();
            } else if (t.text == ":" && scope() == Scope::Class &&
                       stmt.size() == 1 &&
                       (stmt[0].text == "public" ||
                        stmt[0].text == "private" ||
                        stmt[0].text == "protected")) {
                stmt.clear(); // access specifier
            } else {
                stmt.push_back(t);
            }
        }
    }

    Scope
    classifyBrace(const std::vector<Token> &stmt,
                  std::size_t brace_index) const
    {
        if (stmtContains(stmt, "namespace"))
            return Scope::Namespace;
        if (stmtContains(stmt, "enum"))
            return Scope::Enum;
        if (stmtContains(stmt, "="))
            return Scope::Braces; // brace initializer
        if (stmtContains(stmt, "class") ||
            stmtContains(stmt, "struct") ||
            stmtContains(stmt, "union"))
            return Scope::Class;
        if (brace_index > 0) {
            const Token &prev = lr.tokens[brace_index - 1];
            if (prev.kind == Tok::Punct &&
                (prev.text == "=" || prev.text == "," ||
                 prev.text == "(" || prev.text == "{"))
                return Scope::Braces;
            if (prev.kind == Tok::Ident && prev.text == "return")
                return Scope::Braces;
        }
        if (stmtContains(stmt, "("))
            return Scope::Function;
        if (scope() == Scope::Function || scope() == Scope::Braces)
            return Scope::Braces;
        return Scope::Braces;
    }

    void
    analyzeStmt(const std::vector<Token> &stmt, char term)
    {
        if (stmt.empty() || scope() == Scope::Enum)
            return;

        // R4: `using namespace` at header scope.
        if (header && stmt.size() >= 2 && stmt[0].text == "using" &&
            stmt[1].text == "namespace" && atNamespaceScope()) {
            emit(kR4, stmt[0].line,
                 "using namespace at header scope leaks into every "
                 "includer");
        }

        if (inStateScope)
            checkState(stmt, term);
        if (inUnitScope && scope() == Scope::Class)
            checkUnits(stmt, term);
    }

    /** R2: static / namespace-scope mutable state. */
    void
    checkState(const std::vector<Token> &stmt, char term)
    {
        // `constinit` only fixes when a variable is initialised; the
        // variable stays mutable.
        const bool immutable = stmtContains(stmt, "const") ||
                               stmtContains(stmt, "constexpr");

        for (const auto &t : stmt) {
            if (t.text != "static")
                continue;
            if (immutable)
                break;
            // A '(' before any initializer means a function
            // declarator (static member / internal-linkage function)
            // — those carry no state. `static Foo x(1);` slips
            // through; this repo brace-initializes.
            bool declarator_paren = false;
            for (const auto &d : stmt) {
                if (d.text == "=")
                    break;
                if (d.text == "(") {
                    declarator_paren = true;
                    break;
                }
            }
            if (declarator_paren)
                break;
            emit(kR2, t.line,
                 "mutable static state is shared across the "
                 "parallel runner's threads; pass state explicitly "
                 "or make it constexpr");
            break;
        }

        // Namespace-scope variables without `static` are just as
        // shared. Skip declarations that clearly are not variables.
        if (!atNamespaceScope() || immutable)
            return;
        if (term != ';' && term != '{')
            return;
        const Token &first = stmt[0];
        if (first.kind != Tok::Ident)
            return;
        static const std::set<std::string> skipLead = {
            "class",  "struct",  "union",   "enum",   "template",
            "using",  "typedef", "extern",  "friend", "namespace",
            "static", "static_assert", "operator",
        };
        if (skipLead.count(first.text))
            return;
        if (stmtContains(stmt, "(") || stmtContains(stmt, "operator"))
            return;
        if (stmt.size() < 2)
            return;
        // Last identifier in the declarator head is the name.
        std::size_t name_idx = stmt.size();
        for (std::size_t k = 0; k < stmt.size(); ++k)
            if (stmt[k].text == "=") {
                name_idx = k;
                break;
            }
        if (name_idx < 2) // `x = ...` is an assignment, not a decl
            return;
        const Token &name = stmt[name_idx - 1];
        if (name.kind != Tok::Ident)
            return;
        emit(kR2, name.line,
             "mutable namespace-scope variable '" + name.text +
                 "' is shared across the parallel runner's threads");
    }

    /** R5: unit suffixes on integer duration/size fields. */
    void
    checkUnits(const std::vector<Token> &stmt, char term)
    {
        (void)term;
        static const std::set<std::string> skipLead = {
            "using", "typedef", "friend", "template", "class",
            "struct", "enum", "union", "operator", "public",
            "private", "protected", "static_assert",
        };
        if (stmt[0].kind != Tok::Ident || skipLead.count(stmt[0].text))
            return;

        // Field name: the token before '=', else the last token.
        std::size_t name_idx = stmt.size();
        for (std::size_t k = 0; k < stmt.size(); ++k)
            if (stmt[k].text == "=") {
                name_idx = k;
                break;
            }
        if (name_idx == 0)
            return;
        const Token &name = stmt[name_idx - 1];
        static const std::set<std::string> notNames = {
            "const", "constexpr", "mutable", "volatile", "override",
            "final", "noexcept", "default", "delete",
        };
        if (name.kind != Tok::Ident || notNames.count(name.text))
            return;

        // A '(' before the name means a function declarator.
        for (std::size_t k = 0; k + 1 < name_idx; ++k)
            if (stmt[k].text == "(")
                return;

        bool integral = false;
        for (std::size_t k = 0; k + 1 < name_idx; ++k)
            if (intTypeNames().count(stmt[k].text)) {
                integral = true;
                break;
            }
        if (!integral)
            return;
        if (hasUnitStem(name.text) && !hasUnitSuffix(name.text))
            emit(kR5, name.line,
                 "integer field '" + name.text +
                     "' reads as a duration/size but has no unit "
                     "suffix (Us/Ns/Ms/Cycles/Bytes/KiB/MiB)");
    }

    const std::string &path;
    const LexResult &lr;
    const Allowlist &allowlist;
    const bool inSrc;
    const bool inStateScope;
    const bool inUnitScope;
    const bool header;

    std::vector<Scope> scopes;
    std::vector<Violation> out;
};

} // namespace

bool
ruleMatches(const std::string &spec, const std::string &rule_id)
{
    if (spec == "*" || spec == rule_id)
        return true;
    const std::size_t dash = rule_id.find('-');
    if (dash == std::string::npos)
        return false;
    return spec == rule_id.substr(0, dash) ||
           spec == rule_id.substr(dash + 1);
}

const std::vector<std::string> &
allRules()
{
    static const std::vector<std::string> rules = {
        kR1, kR2, kR3, kR4, kR5, kR6, kR7, kR8, kR9};
    return rules;
}

bool
Allowlist::allows(const std::string &rule_id,
                  const std::string &path) const
{
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &e = entries[i];
        if (!ruleMatches(e.rule, rule_id))
            continue;
        const bool hit =
            e.pathSuffix == "*" || e.pathSuffix == path ||
            (!e.pathSuffix.empty() && e.pathSuffix.back() == '/' &&
             startsWith(path, e.pathSuffix)) ||
            endsWith(path, e.pathSuffix);
        if (hit) {
            used[i] = true;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
Allowlist::unusedEntries() const
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (!used[i])
            out.push_back(entries[i].rule + " " +
                          entries[i].pathSuffix);
    return out;
}

bool
Allowlist::parse(const std::string &text, Allowlist &out,
                 std::string &error)
{
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string rule, suffix, extra;
        if (!(fields >> rule))
            continue; // blank / comment-only line
        if (!(fields >> suffix) || (fields >> extra)) {
            std::ostringstream err;
            err << "allowlist line " << lineno
                << ": expected '<rule> <path-suffix>'";
            error = err.str();
            return false;
        }
        bool known = rule == "*";
        for (const auto &id : allRules())
            known = known || ruleMatches(rule, id);
        if (!known) {
            std::ostringstream err;
            err << "allowlist line " << lineno << ": unknown rule '"
                << rule << "'";
            error = err.str();
            return false;
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (out.entries[i].rule == rule &&
                out.entries[i].pathSuffix == suffix) {
                std::ostringstream err;
                err << "allowlist line " << lineno
                    << ": duplicate entry '" << rule << " " << suffix
                    << "'";
                error = err.str();
                return false;
            }
        }
        out.add(AllowEntry{rule, suffix});
    }
    return true;
}

std::vector<Violation>
lintFile(const std::string &path, const std::string &text,
         const Allowlist &allowlist)
{
    const LexResult lr = lex(text);
    return Linter(path, lr, allowlist).run();
}

std::vector<Violation>
lintLexed(const std::string &path, const LexResult &lex,
          const Allowlist &allowlist)
{
    return Linter(path, lex, allowlist).run();
}

} // namespace rbvlint
