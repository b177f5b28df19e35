/**
 * @file
 * rbvlint v2 per-TU parser implementation.
 *
 * Two phases over one file's token stream:
 *
 *  1. A statement walk with a brace-matched scope stack (the same
 *     trick the per-file rule engine uses, upgraded to carry names)
 *     finds function definitions, class fields, constructors, and
 *     namespace-scope variables, and records each function's body
 *     token range.
 *  2. A body scan over each recorded range extracts call sites, RNG
 *     draws, container iterations, interesting locals, function-local
 *     statics, and held locks.
 *
 * Everything is heuristic but deterministic; the passes only act on
 * names they can resolve, so unrecognized constructs degrade to
 * silence, not to false positives.
 */

#include "rbvlint/parser.hh"

#include <algorithm>
#include <cctype>
#include <set>

namespace rbvlint {

namespace {

const std::set<std::string> &
unorderedNames()
{
    static const std::set<std::string> names = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    return names;
}

/** Engine types: the repo's generators plus the std engines. */
const std::set<std::string> &
engineTypeNames()
{
    static const std::set<std::string> names = {
        "Rng",           "SplitMix64",    "mt19937",
        "mt19937_64",    "minstd_rand",   "minstd_rand0",
        "ranlux24",      "ranlux48",      "ranlux24_base",
        "ranlux48_base", "knuth_b",       "default_random_engine",
    };
    return names;
}

/** Draw-family method names on engine objects. */
const std::set<std::string> &
drawMethodNames()
{
    static const std::set<std::string> names = {
        "uniform", "uniformInt", "exponential", "normal",
        "logNormal", "discrete",  "next",        "split",
        "sample",  "operator",
    };
    return names;
}

/** Identifiers that look like calls but are control flow / builtins. */
const std::set<std::string> &
callKeywords()
{
    static const std::set<std::string> names = {
        "if",      "for",       "while",    "switch",  "return",
        "catch",   "sizeof",    "alignof",  "alignas", "decltype",
        "noexcept", "throw",    "new",      "delete",  "asm",
        "static_assert", "defined", "requires", "typeid",
    };
    return names;
}

const std::set<std::string> &
lockTypes()
{
    static const std::set<std::string> names = {
        "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
    return names;
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

enum class Scope
{
    File,
    Namespace,
    Class,
    Enum,
    Function,
    Braces,
};

struct ScopeEntry
{
    Scope kind;
    std::string name; ///< Class name for Class scopes.
    int func = -1;    ///< Index into functions for Function scopes.
};

class Parser
{
  public:
    Parser(const std::string &path, const LexResult &lr)
        : path(path), lr(lr)
    {
        (void)this->path;
    }

    TuSymbols
    run()
    {
        walk();
        for (auto &f : out.functions)
            scanBody(f);
        return std::move(out);
    }

  private:
    const Token &
    tk(std::size_t i) const
    {
        return lr.tokens[i];
    }

    bool
    is(std::size_t i, const char *text) const
    {
        return i < lr.tokens.size() && lr.tokens[i].text == text;
    }

    bool
    isIdent(std::size_t i) const
    {
        return i < lr.tokens.size() &&
               lr.tokens[i].kind == Tok::Ident;
    }

    /** Index just past a balanced template-argument group at @p i. */
    std::size_t
    skipAngles(std::size_t i) const
    {
        if (!is(i, "<"))
            return i;
        int depth = 0;
        const std::size_t n = lr.tokens.size();
        for (std::size_t k = i; k < n && k < i + 400; ++k) {
            if (is(k, "<"))
                ++depth;
            else if (is(k, ">") && --depth == 0)
                return k + 1;
            else if (is(k, ";") || is(k, "{"))
                break; // not a template group after all
        }
        return i + 1;
    }

    // ---- Phase 1: statement walk. ---------------------------------

    bool
    stmtHas(const std::vector<std::size_t> &stmt,
            const char *text) const
    {
        for (std::size_t i : stmt)
            if (tk(i).text == text)
                return true;
        return false;
    }

    void
    walk()
    {
        scopes.assign(1, ScopeEntry{Scope::File, "", -1});
        std::vector<std::size_t> stmt;

        const std::size_t n = lr.tokens.size();
        for (std::size_t i = 0; i < n; ++i) {
            const Token &t = tk(i);
            if (t.kind != Tok::Punct) {
                stmt.push_back(i);
                continue;
            }
            if (t.text == "{") {
                analyzeStmt(stmt, '{');
                scopes.push_back(classifyBrace(stmt, i));
                stmt.clear();
            } else if (t.text == "}") {
                if (scopes.size() > 1) {
                    if (scopes.back().kind == Scope::Function &&
                        scopes.back().func >= 0)
                        out.functions[static_cast<std::size_t>(
                                          scopes.back().func)]
                            .tokEnd = i;
                    scopes.pop_back();
                }
                stmt.clear();
            } else if (t.text == ";") {
                analyzeStmt(stmt, ';');
                stmt.clear();
            } else if (t.text == ":" &&
                       scopes.back().kind == Scope::Class &&
                       stmt.size() == 1 &&
                       (tk(stmt[0]).text == "public" ||
                        tk(stmt[0]).text == "private" ||
                        tk(stmt[0]).text == "protected")) {
                stmt.clear(); // access specifier
            } else {
                stmt.push_back(i);
            }
        }
    }

    ScopeEntry
    classifyBrace(const std::vector<std::size_t> &stmt,
                  std::size_t brace_index)
    {
        const ScopeEntry &cur = scopes.back();

        // Inside a function, every brace is body structure; keep
        // attributing tokens to the enclosing function.
        if (cur.kind == Scope::Function || cur.kind == Scope::Braces)
            return ScopeEntry{Scope::Braces, "", cur.func};

        if (stmtHas(stmt, "namespace"))
            return ScopeEntry{Scope::Namespace, "", -1};
        if (stmtHas(stmt, "enum"))
            return ScopeEntry{Scope::Enum, "", -1};
        if (stmtHas(stmt, "="))
            return ScopeEntry{Scope::Braces, "", -1};
        if (stmtHas(stmt, "class") || stmtHas(stmt, "struct") ||
            stmtHas(stmt, "union")) {
            // Last keyword wins so `template <class T> struct Foo`
            // names Foo, not T.
            std::string name;
            for (std::size_t k = 0; k < stmt.size(); ++k) {
                const std::string &w = tk(stmt[k]).text;
                if ((w == "class" || w == "struct" || w == "union") &&
                    k + 1 < stmt.size() && isIdent(stmt[k + 1]))
                    name = tk(stmt[k + 1]).text;
            }
            if (!name.empty())
                registerClass(name, tk(stmt[0]).line);
            return ScopeEntry{Scope::Class, name, -1};
        }
        if (stmtHas(stmt, "(")) {
            const int fn = extractFunction(stmt, brace_index);
            if (fn >= 0)
                return ScopeEntry{Scope::Function, "", fn};
        }
        return ScopeEntry{Scope::Braces, "", -1};
    }

    int
    classIndex(const std::string &name)
    {
        for (std::size_t i = 0; i < out.classes.size(); ++i)
            if (out.classes[i].name == name)
                return static_cast<int>(i);
        return -1;
    }

    void
    registerClass(const std::string &name, int line)
    {
        if (classIndex(name) < 0)
            out.classes.push_back(ClassDef{name, line, false});
    }

    /**
     * Try to read @p stmt (terminated by the `{` at @p brace_index)
     * as a function definition header. Returns the new function's
     * index, or -1 when the statement is not a function.
     */
    int
    extractFunction(const std::vector<std::size_t> &stmt,
                    std::size_t brace_index)
    {
        // First '(' opens the parameter list; its preceding
        // identifier is the function name.
        std::size_t paren = stmt.size();
        for (std::size_t k = 0; k < stmt.size(); ++k)
            if (tk(stmt[k]).text == "(") {
                paren = k;
                break;
            }
        if (paren == stmt.size() || paren == 0)
            return -1;
        if (!isIdent(stmt[paren - 1]))
            return -1;
        std::string name = tk(stmt[paren - 1]).text;
        if (callKeywords().count(name))
            return -1;
        bool dtor = false;
        if (paren >= 2 && tk(stmt[paren - 2]).text == "~") {
            name = "~" + name;
            dtor = true;
        }

        FunctionDef fn;
        fn.name = name;
        fn.line = tk(stmt[paren - 1]).line;
        fn.tokBegin = brace_index + 1;
        fn.tokEnd = lr.tokens.size();

        // Class attribution: enclosing class scope, else the last
        // `Qualifier::` before the name (out-of-class definition).
        if (scopes.back().kind == Scope::Class) {
            fn.className = scopes.back().name;
        } else {
            std::size_t q = paren - 1;
            if (dtor && q > 0)
                --q; // skip '~'
            if (q >= 3 && tk(stmt[q - 1]).text == ":" &&
                tk(stmt[q - 2]).text == ":" && isIdent(stmt[q - 3]))
                fn.className = tk(stmt[q - 3]).text;
        }

        // Parameter list: collect identifiers (types and names both;
        // used only as a resolution whitelist) up to the matching ')'.
        int depth = 0;
        std::size_t close = stmt.size();
        for (std::size_t k = paren; k < stmt.size(); ++k) {
            if (tk(stmt[k]).text == "(")
                ++depth;
            else if (tk(stmt[k]).text == ")" && --depth == 0) {
                close = k;
                break;
            }
            if (k > paren && isIdent(stmt[k]))
                fn.params.push_back(tk(stmt[k]).text);
        }

        // Constructor? Record the class's seeding discipline.
        if (!fn.className.empty() && fn.name == fn.className)
            noteCtorParams(fn.className, fn.line, fn.params);

        // Member-initializer list: its calls still count as edges
        // (constructors routinely derive child streams there).
        std::vector<CallSite> initCalls;
        for (std::size_t k = close; k + 1 < stmt.size(); ++k) {
            if (isIdent(stmt[k]) && tk(stmt[k + 1]).text == "(" &&
                !callKeywords().count(tk(stmt[k]).text))
                initCalls.push_back(
                    CallSite{tk(stmt[k]).text, tk(stmt[k]).line});
        }
        fn.calls = std::move(initCalls);

        out.functions.push_back(std::move(fn));
        return static_cast<int>(out.functions.size()) - 1;
    }

    /** Mark @p className seed-disciplined if a ctor param carries a
     *  seed or an RNG stream. */
    void
    noteCtorParams(const std::string &className, int line,
                   const std::vector<std::string> &params)
    {
        registerClass(className, line);
        bool seeded = false;
        for (const auto &p : params) {
            const std::string low = lowered(p);
            if (low.find("seed") != std::string::npos ||
                low.find("rng") != std::string::npos ||
                engineTypeNames().count(p))
                seeded = true;
        }
        if (seeded)
            out.classes[static_cast<std::size_t>(
                            classIndex(className))]
                .seedCtor = true;
    }

    /** Declaration name: nearest identifier before @p stop, walking
     *  back over array-extent brackets. */
    int
    declNameIndex(const std::vector<std::size_t> &stmt,
                  std::size_t stop) const
    {
        std::size_t k = stop;
        while (k > 0) {
            --k;
            if (tk(stmt[k]).text == "]") {
                int depth = 0;
                while (k > 0) {
                    if (tk(stmt[k]).text == "]")
                        ++depth;
                    else if (tk(stmt[k]).text == "[" && --depth == 0)
                        break;
                    --k;
                }
                continue;
            }
            if (isIdent(stmt[k]))
                return static_cast<int>(k);
            return -1;
        }
        return -1;
    }

    void
    analyzeStmt(const std::vector<std::size_t> &stmt, char term)
    {
        if (stmt.empty())
            return;
        const Scope cur = scopes.back().kind;
        if (cur == Scope::Class)
            analyzeClassStmt(stmt, term);
        else if (cur == Scope::File || cur == Scope::Namespace)
            analyzeNamespaceStmt(stmt, term);
    }

    /** Class-scope statement: a field declaration or a member
     *  function declaration (constructors matter for seeding). */
    void
    analyzeClassStmt(const std::vector<std::size_t> &stmt, char term)
    {
        static const std::set<std::string> skipLead = {
            "using",   "typedef", "friend",    "template",
            "class",   "struct",  "enum",      "union",
            "operator", "public", "private",   "protected",
            "static_assert",
        };
        if (!isIdent(stmt[0]) || skipLead.count(tk(stmt[0]).text))
            return;
        const std::string &className = scopes.back().name;

        // A '(' means a member-function declaration; constructors
        // reveal the class's seeding discipline, the rest is noise.
        std::size_t paren = stmt.size();
        for (std::size_t k = 0; k < stmt.size(); ++k)
            if (tk(stmt[k]).text == "(") {
                paren = k;
                break;
            }
        if (paren != stmt.size()) {
            if (paren > 0 && isIdent(stmt[paren - 1]) &&
                tk(stmt[paren - 1]).text == className) {
                std::vector<std::string> params;
                int depth = 0;
                for (std::size_t k = paren; k < stmt.size(); ++k) {
                    if (tk(stmt[k]).text == "(")
                        ++depth;
                    else if (tk(stmt[k]).text == ")" && --depth == 0)
                        break;
                    if (k > paren && isIdent(stmt[k]))
                        params.push_back(tk(stmt[k]).text);
                }
                noteCtorParams(className,
                               tk(stmt[paren - 1]).line, params);
            }
            return;
        }

        // Field declaration. Name sits before '=' (initializer) or at
        // the end of the statement.
        std::size_t stop = stmt.size();
        for (std::size_t k = 0; k < stmt.size(); ++k)
            if (tk(stmt[k]).text == "=") {
                stop = k;
                break;
            }
        if (term == '{' && stop == stmt.size())
            return; // `Foo x{...}` handled via '=' or uninteresting
        const int nameIdx = declNameIndex(stmt, stop);
        if (nameIdx <= 0)
            return;

        FieldDef fd;
        fd.className = className;
        fd.name = tk(stmt[static_cast<std::size_t>(nameIdx)]).text;
        fd.line = tk(stmt[static_cast<std::size_t>(nameIdx)]).line;

        static const std::set<std::string> quals = {
            "static",  "mutable",  "const",       "constexpr",
            "constinit", "volatile", "inline",    "thread_local",
            "explicit", "virtual",
        };
        for (int k = 0; k < nameIdx; ++k) {
            const std::string &w =
                tk(stmt[static_cast<std::size_t>(k)]).text;
            if (quals.count(w))
                continue;
            if (!fd.type.empty())
                fd.type += ' ';
            fd.type += w;
        }
        for (std::size_t k : stmt) {
            const std::string &w = tk(k).text;
            if (unorderedNames().count(w))
                fd.unordered = true;
            if (w.find("mutex") != std::string::npos)
                fd.mutex = true;
            if (engineTypeNames().count(w))
                fd.engine = true;
            if (w == "const" || w == "constexpr")
                fd.immutable = true;
        }

        const int declLine = tk(stmt[0]).line;
        for (const auto &g : lr.guards)
            if (g.line == fd.line || g.line == declLine)
                fd.guardedBy = g.mutexName;

        out.fields.push_back(std::move(fd));
    }

    /** Namespace-scope statement: a mutable variable is shared state. */
    void
    analyzeNamespaceStmt(const std::vector<std::size_t> &stmt,
                         char term)
    {
        if (term != ';' && term != '{')
            return;

        // Strip leading storage qualifiers; `static`, `constinit`
        // and `thread_local` variables are still per-process (or
        // per-thread-but-shared-across-jobs) mutable state.
        std::size_t first = 0;
        static const std::set<std::string> leadQuals = {
            "static", "constinit", "thread_local", "inline", "mutable"};
        while (first < stmt.size() && isIdent(stmt[first]) &&
               leadQuals.count(tk(stmt[first]).text))
            ++first;
        if (first >= stmt.size() || !isIdent(stmt[first]))
            return;

        static const std::set<std::string> skipLead = {
            "class",  "struct",  "union",   "enum",   "template",
            "using",  "typedef", "extern",  "friend", "namespace",
            "static_assert", "operator",
        };
        if (skipLead.count(tk(stmt[first]).text))
            return;

        bool immutable = false;
        bool hasParen = false;
        bool engine = false;
        for (std::size_t k : stmt) {
            const std::string &w = tk(k).text;
            if (w == "const" || w == "constexpr")
                immutable = true;
            if (w == "(")
                hasParen = true;
            if (engineTypeNames().count(w))
                engine = true;
        }
        if (immutable || hasParen)
            return;

        std::size_t stop = stmt.size();
        for (std::size_t k = 0; k < stmt.size(); ++k)
            if (tk(stmt[k]).text == "=") {
                stop = k;
                break;
            }
        const int nameIdx = declNameIndex(stmt, stop);
        // Require a type before the name: `x = ...;` is assignment.
        if (nameIdx <= static_cast<int>(first))
            return;
        out.nsMutables.push_back(
            NsVar{tk(stmt[static_cast<std::size_t>(nameIdx)]).text,
                  tk(stmt[static_cast<std::size_t>(nameIdx)]).line,
                  engine});
    }

    // ---- Phase 2: body scans. -------------------------------------

    void
    scanBody(FunctionDef &fn)
    {
        const std::size_t lo = fn.tokBegin;
        const std::size_t hi = std::min(fn.tokEnd, lr.tokens.size());

        for (std::size_t i = lo; i < hi; ++i) {
            const Token &t = tk(i);
            if (t.kind != Tok::Ident)
                continue;
            const std::string &w = t.text;

            // Call sites (free calls and method calls alike).
            if (is(i + 1, "(") && !callKeywords().count(w))
                fn.calls.push_back(CallSite{w, t.line});

            // RNG draws: obj.method(...) / obj->method(...).
            if (is(i + 1, ".") && isIdent(i + 2) && is(i + 3, "(") &&
                drawMethodNames().count(tk(i + 2).text))
                fn.draws.push_back(
                    DrawSite{w, tk(i + 2).text, tk(i + 2).line});
            if (is(i + 1, "-") && is(i + 2, ">") && isIdent(i + 3) &&
                is(i + 4, "(") &&
                drawMethodNames().count(tk(i + 3).text))
                fn.draws.push_back(
                    DrawSite{w, tk(i + 3).text, tk(i + 3).line});

            // Iterator-based iteration: obj.begin() / obj.cbegin().
            if (is(i + 1, ".") && isIdent(i + 2) && is(i + 3, "(") &&
                (tk(i + 2).text == "begin" ||
                 tk(i + 2).text == "cbegin"))
                fn.iters.push_back(IterSite{w, t.line});

            // Range-for: for (decl : obj).
            if (w == "for" && is(i + 1, "("))
                scanRangeFor(fn, i + 1, hi);

            // Interesting locals: unordered containers and engines.
            if (unorderedNames().count(w))
                scanLocalDecl(fn, i, hi, /*unordered=*/true);
            else if (engineTypeNames().count(w))
                scanLocalDecl(fn, i, hi, /*unordered=*/false);

            // Function-local statics.
            if (w == "static")
                scanStaticLocal(fn, i, hi);

            // Held locks: guard objects and explicit .lock().
            if (lockTypes().count(w))
                scanLockGuard(fn, i, hi);
            if (is(i + 1, ".") && isIdent(i + 2) && is(i + 3, "(") &&
                (tk(i + 2).text == "lock" ||
                 tk(i + 2).text == "lock_shared"))
                fn.locksHeld.push_back(w);
        }

        std::sort(fn.locksHeld.begin(), fn.locksHeld.end());
        fn.locksHeld.erase(
            std::unique(fn.locksHeld.begin(), fn.locksHeld.end()),
            fn.locksHeld.end());
    }

    /** Parse `( decl : obj )` starting at the '(' index @p open. */
    void
    scanRangeFor(FunctionDef &fn, std::size_t open, std::size_t hi)
    {
        int depth = 0;
        std::size_t colon = 0;
        std::size_t close = 0;
        for (std::size_t k = open; k < hi && k < open + 200; ++k) {
            if (is(k, "("))
                ++depth;
            else if (is(k, ")")) {
                if (--depth == 0) {
                    close = k;
                    break;
                }
            } else if (is(k, ":") && depth == 1 && !is(k + 1, ":") &&
                       !is(k - 1, ":") && colon == 0) {
                colon = k;
            }
        }
        if (colon == 0 || close == 0)
            return;

        // Receiver: strip a leading `this->`, then accept a single
        // identifier; chains ("a.b") are joined and left to the
        // passes, which skip what they cannot resolve.
        std::size_t k = colon + 1;
        if (is(k, "this") && is(k + 1, "-") && is(k + 2, ">"))
            k += 3;
        std::string object;
        int idents = 0;
        for (; k < close; ++k) {
            if (isIdent(k)) {
                if (!object.empty())
                    object += '.';
                object += tk(k).text;
                ++idents;
            } else if (!is(k, ".") &&
                       !(is(k, "-") && is(k + 1, ">"))) {
                if (!is(k, ">")) // tail of '->'
                    return;      // expression, not a plain receiver
            }
        }
        if (idents >= 1)
            fn.iters.push_back(IterSite{object, tk(colon).line});
    }

    /** Record a local declared by the type token at @p i. */
    void
    scanLocalDecl(FunctionDef &fn, std::size_t i, std::size_t hi,
                  bool unordered)
    {
        LocalVar v;
        v.unordered = unordered;
        v.engine = !unordered;
        v.line = tk(i).line;

        // `static stats::Rng r...` — look back over the qualifier
        // chain for a storage class.
        std::size_t back = i;
        for (int steps = 0; back > 0 && steps < 6; ++steps) {
            --back;
            const std::string &w = tk(back).text;
            if (w == ":" || w == "std" || w == "stats" ||
                w == "const")
                continue;
            if (w == "static")
                v.isStatic = true;
            break;
        }

        std::size_t k = skipAngles(i + 1);
        while (k < hi && (is(k, "&") || is(k, "*")))
            ++k;
        if (k >= hi || !isIdent(k))
            return; // temporary or cast — no named local
        v.name = tk(k).text;

        // Seeded when constructed with at least one argument or
        // copy/reference-bound from an existing stream; only a bare
        // `Rng r;` / `Rng r{};` is an unseeded engine.
        if (is(k + 1, "(") || is(k + 1, "{")) {
            const char *closeCh = is(k + 1, "(") ? ")" : "}";
            v.seeded = !is(k + 2, closeCh);
        } else if (is(k + 1, "=")) {
            v.seeded = true;
        }
        fn.locals.push_back(std::move(v));
    }

    /** Record a mutable `static` declaration inside a body. */
    void
    scanStaticLocal(FunctionDef &fn, std::size_t i, std::size_t hi)
    {
        std::size_t stop = 0;
        bool immutable = false;
        int angle = 0;
        for (std::size_t k = i + 1; k < hi && k < i + 60; ++k) {
            const std::string &w = tk(k).text;
            if (w == "const" || w == "constexpr")
                immutable = true;
            if (w == "<")
                ++angle;
            else if (w == ">" && angle > 0)
                --angle;
            else if (angle == 0 &&
                     (w == "=" || w == "(" || w == "{" || w == ";")) {
                stop = k;
                break;
            }
        }
        if (stop == 0 || immutable)
            return;
        // Nearest identifier before the initializer/terminator.
        std::size_t k = stop;
        while (k > i + 1) {
            --k;
            if (isIdent(k)) {
                fn.mutableStatics.push_back(
                    StaticLocal{tk(k).text, tk(k).line});
                return;
            }
            if (!is(k, "]") && !is(k, "[") && !is(k, ">"))
                return;
        }
    }

    /** Record the mutex names a guard object at @p i locks. */
    void
    scanLockGuard(FunctionDef &fn, std::size_t i, std::size_t hi)
    {
        // lock_guard<std::mutex> name(mu) — the paren group after the
        // declared name holds the mutex expression.
        std::size_t k = skipAngles(i + 1);
        while (k < hi && isIdent(k))
            ++k; // guard variable name
        if (k >= hi || (!is(k, "(") && !is(k, "{")))
            return;
        const bool paren = is(k, "(");
        int depth = 0;
        for (; k < hi && k < i + 80; ++k) {
            if (is(k, paren ? "(" : "{"))
                ++depth;
            else if (is(k, paren ? ")" : "}")) {
                if (--depth == 0)
                    return;
            } else if (isIdent(k) && depth >= 1 &&
                       tk(k).text != "this") {
                fn.locksHeld.push_back(tk(k).text);
            }
        }
    }

    const std::string &path;
    const LexResult &lr;
    TuSymbols out;
    std::vector<ScopeEntry> scopes;
};

} // namespace

TuSymbols
parseTu(const std::string &path, const LexResult &lex)
{
    return Parser(path, lex).run();
}

TuUnit
makeUnit(const std::string &path, const std::string &text)
{
    TuUnit unit;
    unit.path = path;
    unit.lex = lex(text);
    unit.syms = parseTu(path, unit.lex);
    return unit;
}

} // namespace rbvlint
