/**
 * @file
 * rbvlint v2 per-TU parser.
 *
 * A lightweight C++ "parser" one notch above the token scanner: it
 * walks a translation unit's token stream with a brace-matched scope
 * stack and extracts the symbols the interprocedural passes need —
 * function definitions (with their call sites, RNG draws, container
 * iterations, local statics, and held locks), class fields (with
 * container/mutex/engine classification and `guarded_by`
 * annotations), constructors' seeding discipline, and namespace-scope
 * mutable variables. It is deliberately not a C++ front end: it is
 * flow-insensitive, resolves names by identifier, and errs toward
 * recording too much (the passes resolve conservatively and stay
 * silent on anything they cannot attribute).
 */

#ifndef RBVLINT_PARSER_HH
#define RBVLINT_PARSER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "rbvlint/lexer.hh"

namespace rbvlint {

/** One call site inside a function body: `name(...)`. */
struct CallSite
{
    std::string name;
    int line;
};

/** One RNG draw: `object.method(...)` with a draw-family method. */
struct DrawSite
{
    std::string object; ///< Receiver identifier ("" if implicit).
    std::string method;
    int line;
};

/** One container iteration: range-for target or `.begin()` receiver. */
struct IterSite
{
    std::string object; ///< "a.b" chains stay joined (unresolvable).
    int line;
};

/** A function-local variable the passes care about. */
struct LocalVar
{
    std::string name;
    int line;
    bool unordered = false; ///< std::unordered_{map,set,...}.
    bool engine = false;    ///< stats::Rng / SplitMix64 / std engine.
    bool seeded = false;    ///< Declared with constructor arguments.
    bool isStatic = false;  ///< `static` local (shared across calls).
};

/** A mutable `static` declaration inside a function body. */
struct StaticLocal
{
    std::string name;
    int line;
};

struct FunctionDef
{
    std::string name;      ///< Unqualified ("run", "FaultSession").
    std::string className; ///< Enclosing/qualifying class, "" if free.
    int line = 0;
    std::size_t tokBegin = 0; ///< Body token range [tokBegin, tokEnd).
    std::size_t tokEnd = 0;
    std::vector<std::string> params; ///< Identifiers in the param list.
    std::vector<CallSite> calls;
    std::vector<DrawSite> draws;
    std::vector<IterSite> iters;
    std::vector<LocalVar> locals; ///< Unordered/engine locals only.
    std::vector<StaticLocal> mutableStatics;
    std::vector<std::string> locksHeld; ///< Mutexes locked in body.
};

struct FieldDef
{
    std::string className;
    std::string name;
    std::string type; ///< Declared type tokens, space-joined.
    int line = 0;
    bool unordered = false;
    bool mutex = false;
    bool engine = false;
    bool immutable = false;   ///< const/constexpr.
    std::string guardedBy;    ///< Mutex named by a guard annotation.
};

struct ClassDef
{
    std::string name;
    int line = 0;
    /**
     * True when a constructor (definition or declaration) takes a
     * seed or an RNG stream — the repo's keyed-stream discipline: a
     * member engine is legitimate only if the class is handed its
     * stream (or the seed to derive it) at construction.
     */
    bool seedCtor = false;
};

/** A mutable namespace-scope (or file-static) variable. */
struct NsVar
{
    std::string name;
    int line = 0;
    bool engine = false;
};

/** Everything the passes need to know about one translation unit. */
struct TuSymbols
{
    std::vector<FunctionDef> functions;
    std::vector<FieldDef> fields;
    std::vector<ClassDef> classes;
    std::vector<NsVar> nsMutables;
};

/** One parsed file: path + token stream + symbol table. */
struct TuUnit
{
    std::string path; ///< Repo-relative, forward slashes.
    LexResult lex;
    TuSymbols syms;
};

/** Build the symbol table for one lexed translation unit. */
TuSymbols parseTu(const std::string &path, const LexResult &lex);

/** Convenience: lex + parse into a TuUnit. */
TuUnit makeUnit(const std::string &path, const std::string &text);

} // namespace rbvlint

#endif // RBVLINT_PARSER_HH
