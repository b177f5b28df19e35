/**
 * @file
 * rbvlint v2 tests: raw-string lexing, the per-TU parser, the
 * whole-tree call graph, the interprocedural passes (R7/R8/R9 and
 * reachability-R2), and the baseline machinery.
 *
 * Fixtures live in tests/rbvlint_fixtures/ (path injected via
 * RBVLINT_FIXTURE_DIR). The interprocedural rules decide
 * applicability and reachability from the virtual repo path each
 * fixture pretends to live at, so tests pair fixture files with
 * virtual src/ paths, mirroring the per-file suite.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rbvlint/baseline.hh"
#include "rbvlint/callgraph.hh"
#include "rbvlint/parser.hh"
#include "rbvlint/passes.hh"
#include "rbvlint/rules.hh"

namespace {

std::string
readFixture(const std::string &name)
{
    const std::string path =
        std::string(RBVLINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Build TuUnits for (fixture, virtual path) pairs. */
std::vector<rbvlint::TuUnit>
makeUnits(
    const std::vector<std::pair<std::string, std::string>> &specs)
{
    std::vector<rbvlint::TuUnit> units;
    for (const auto &[fixture, path] : specs)
        units.push_back(rbvlint::makeUnit(path, readFixture(fixture)));
    return units;
}

/** Run only the interprocedural passes over the given units. */
std::vector<rbvlint::Violation>
treeLint(const std::vector<rbvlint::TuUnit> &units,
         const rbvlint::Allowlist &allowlist = {})
{
    const rbvlint::CallGraph graph(units);
    return rbvlint::runTreePasses(units, graph, allowlist);
}

int
countRule(const std::vector<rbvlint::Violation> &vs,
          const std::string &rule)
{
    int n = 0;
    for (const auto &v : vs)
        if (v.rule == rule)
            ++n;
    return n;
}

const rbvlint::FunctionDef *
findFn(const rbvlint::TuSymbols &syms, const std::string &name)
{
    for (const auto &f : syms.functions)
        if (f.name == name)
            return &f;
    return nullptr;
}

const rbvlint::FieldDef *
findFd(const rbvlint::TuSymbols &syms, const std::string &name)
{
    for (const auto &f : syms.fields)
        if (f.name == name)
            return &f;
    return nullptr;
}

} // namespace

// ---- Lexer: raw strings must not desync tokenization. -------------

TEST(RawStrings, ContentsAreOpaqueAndLexingStaysInSync)
{
    const auto vs = rbvlint::lintFile("src/wl/fixture.cc",
                                      readFixture("raw_string.cc"), {});
    // Exactly the one genuine rand() call fires; none of the bait
    // inside the raw strings (rand(), srand, //-lookalikes, quotes)
    // leaks out as tokens.
    ASSERT_EQ(vs.size(), 1u)
        << (vs.empty() ? "" : vs[0].message);
    EXPECT_EQ(vs[0].rule, "R1-nondet");
    EXPECT_GT(vs[0].line, 15); // after all three literals
}

TEST(RawStrings, DelimiterVariantsLexAsSingleStrings)
{
    const auto lr = rbvlint::lex(
        "auto a = R\"(plain \" quote // slash)\";\n"
        "auto b = R\"xy(has )\" inside)xy\";\n"
        "auto c = u8R\"(utf)\";\n"
        "int after = 1;\n");
    int strings = 0;
    bool sawAfter = false;
    for (const auto &t : lr.tokens) {
        if (t.kind == rbvlint::Tok::String)
            ++strings;
        if (t.kind == rbvlint::Tok::Ident && t.text == "after")
            sawAfter = true;
    }
    EXPECT_EQ(strings, 3);
    EXPECT_TRUE(sawAfter);
}

// ---- Parser: symbol tables. ---------------------------------------

TEST(Parser, ExtractsFieldsGuardsAndLocks)
{
    const auto unit = rbvlint::makeUnit("src/obs/fixture.cc",
                                        readFixture("r8_bad.cc"));
    const auto *items = findFd(unit.syms, "items");
    ASSERT_NE(items, nullptr);
    EXPECT_EQ(items->className, "Registry");
    EXPECT_EQ(items->guardedBy, "mu");
    EXPECT_FALSE(items->mutex);

    const auto *mu = findFd(unit.syms, "mu");
    ASSERT_NE(mu, nullptr);
    EXPECT_TRUE(mu->mutex);

    const auto *add = findFn(unit.syms, "add");
    ASSERT_NE(add, nullptr);
    EXPECT_EQ(add->className, "Registry");
    ASSERT_EQ(add->locksHeld.size(), 1u);
    EXPECT_EQ(add->locksHeld[0], "mu");

    const auto *unsafeSize = findFn(unit.syms, "unsafeSize");
    ASSERT_NE(unsafeSize, nullptr);
    EXPECT_TRUE(unsafeSize->locksHeld.empty());
}

TEST(Parser, ConstinitVariablesAreMutableState)
{
    // constinit only forbids dynamic initialisation; the variable can
    // still be written, so it is shared state like any other.
    const auto unit = rbvlint::makeUnit(
        "src/obs/fixture.cc",
        "namespace rbv {\n"
        "constinit thread_local int *tl_slot = nullptr;\n"
        "constexpr int Limit = 4;\n"
        "}\n");
    ASSERT_EQ(unit.syms.nsMutables.size(), 1u);
    EXPECT_EQ(unit.syms.nsMutables[0].name, "tl_slot");
}

TEST(Parser, ExtractsEnginesSeedingAndStatics)
{
    const auto bad = rbvlint::makeUnit("src/wl/fixture.cc",
                                       readFixture("r9_bad.cc"));
    ASSERT_EQ(bad.syms.nsMutables.size(), 1u);
    EXPECT_EQ(bad.syms.nsMutables[0].name, "g_rng");
    EXPECT_TRUE(bad.syms.nsMutables[0].engine);

    const auto *drawStatic = findFn(bad.syms, "drawStatic");
    ASSERT_NE(drawStatic, nullptr);
    ASSERT_EQ(drawStatic->locals.size(), 1u);
    EXPECT_TRUE(drawStatic->locals[0].isStatic);
    ASSERT_EQ(drawStatic->draws.size(), 1u);
    EXPECT_EQ(drawStatic->draws[0].method, "uniform");

    const auto good = rbvlint::makeUnit("src/wl/fixture.cc",
                                        readFixture("r9_good.cc"));
    bool keyedSeeded = false;
    for (const auto &c : good.syms.classes)
        if (c.name == "Keyed")
            keyedSeeded = c.seedCtor;
    EXPECT_TRUE(keyedSeeded);
}

// ---- Call graph: cross-TU resolution and closure. -----------------

TEST(CallGraphTest, ClosureCrossesTusAndExcludesOrphans)
{
    const auto units =
        makeUnits({{"callgraph_a.cc", "src/exp/cg_a.cc"},
                   {"callgraph_b.cc", "src/wl/cg_b.cc"}});
    const rbvlint::CallGraph graph(units);

    const auto &roots = graph.byName("rootFn");
    ASSERT_EQ(roots.size(), 1u);
    const auto closure = graph.calleeClosure(roots);

    auto inClosure = [&](const std::string &name) {
        for (std::size_t id : graph.byName(name))
            if (closure[id])
                return true;
        return false;
    };
    EXPECT_TRUE(inClosure("rootFn"));
    EXPECT_TRUE(inClosure("midFn"));
    EXPECT_TRUE(inClosure("leafFn"));
    EXPECT_FALSE(inClosure("orphanFn"));
}

// ---- R7-det-iter. -------------------------------------------------

TEST(R7DetIter, FiresOnUnorderedIterationInResultBearingCode)
{
    const auto vs = treeLint(
        makeUnits({{"r7_bad.cc", "src/core/model/fixture.cc"}}));
    // Two iteration sites plus the standing field hazard.
    EXPECT_EQ(countRule(vs, "R7-det-iter"), 3);
}

TEST(R7DetIter, SilentOnOrderedAndPragmaSuppressed)
{
    const auto vs = treeLint(
        makeUnits({{"r7_good.cc", "src/core/model/fixture.cc"}}));
    EXPECT_EQ(countRule(vs, "R7-det-iter"), 0);
}

TEST(R7DetIter, SilentOutsideResultBearingCode)
{
    // The same content in a leaf directory no result-bearing root
    // calls into stays unflagged.
    const auto vs =
        treeLint(makeUnits({{"r7_bad.cc", "src/wl/fixture.cc"}}));
    EXPECT_EQ(countRule(vs, "R7-det-iter"), 0);
}

// ---- R8-lock-discipline. ------------------------------------------

TEST(R8LockDiscipline, FiresOnUnlockedTouchAndBadMutexName)
{
    const auto vs =
        treeLint(makeUnits({{"r8_bad.cc", "src/obs/fixture.cc"}}));
    EXPECT_EQ(countRule(vs, "R8-lock-discipline"), 2);
}

TEST(R8LockDiscipline, SilentWhenEveryTouchHoldsTheMutex)
{
    const auto vs =
        treeLint(makeUnits({{"r8_good.cc", "src/obs/fixture.cc"}}));
    EXPECT_EQ(countRule(vs, "R8-lock-discipline"), 0);
}

// ---- R9-rng-stream. -----------------------------------------------

TEST(R9RngStream, FiresOnSharedUnseededAndStaticEngines)
{
    const auto vs =
        treeLint(makeUnits({{"r9_bad.cc", "src/wl/fixture.cc"}}));
    // ns-scope decl, draw on it, unseeded-class field draw, static
    // local draw, unseeded local draw.
    EXPECT_EQ(countRule(vs, "R9-rng-stream"), 5);
}

TEST(R9RngStream, SilentOnSanctionedStreamShapes)
{
    const auto vs =
        treeLint(makeUnits({{"r9_good.cc", "src/wl/fixture.cc"}}));
    EXPECT_EQ(countRule(vs, "R9-rng-stream"), 0);
}

// ---- Reachability-upgraded R2. ------------------------------------

TEST(R2Reach, FlagsStateReachableFromTheRunner)
{
    const auto vs = treeLint(
        makeUnits({{"r2_reach_runner.cc", "src/exp/runner.cc"},
                   {"r2_reach_helper.cc", "src/wl/helpers.cc"}}));
    // The file-scope counter and the static local in helperStep.
    EXPECT_EQ(countRule(vs, "R2-global-state"), 2);
}

TEST(R2Reach, SilentWithoutAReachableRoot)
{
    const auto vs = treeLint(
        makeUnits({{"r2_reach_helper.cc", "src/wl/helpers.cc"}}));
    EXPECT_EQ(countRule(vs, "R2-global-state"), 0);
}

TEST(R2Reach, AllowlistGrandfathersByPath)
{
    rbvlint::Allowlist allow;
    std::string err;
    ASSERT_TRUE(rbvlint::Allowlist::parse("R2 src/wl/helpers.cc\n",
                                          allow, err))
        << err;
    const auto vs = treeLint(
        makeUnits({{"r2_reach_runner.cc", "src/exp/runner.cc"},
                   {"r2_reach_helper.cc", "src/wl/helpers.cc"}}),
        allow);
    EXPECT_EQ(countRule(vs, "R2-global-state"), 0);
    EXPECT_TRUE(allow.unusedEntries().empty());
}

// ---- Full-tree analysis entry point. ------------------------------

TEST(AnalyzeTree, MergesPerFileAndTreeFindingsSorted)
{
    const auto units = makeUnits(
        {{"r9_bad.cc", "src/wl/fixture.cc"},
         {"r2_reach_runner.cc", "src/exp/runner.cc"},
         {"r2_reach_helper.cc", "src/wl/helpers.cc"}});
    const auto vs = rbvlint::analyzeTree(units, {});
    EXPECT_GE(countRule(vs, "R9-rng-stream"), 5);
    EXPECT_EQ(countRule(vs, "R2-global-state"), 2);
    for (std::size_t i = 1; i < vs.size(); ++i) {
        const bool ordered =
            vs[i - 1].path < vs[i].path ||
            (vs[i - 1].path == vs[i].path &&
             vs[i - 1].line <= vs[i].line);
        EXPECT_TRUE(ordered) << "unsorted at index " << i;
    }
}

// ---- Baseline. ----------------------------------------------------

TEST(BaselineTest, ParseRejectsLinesWithoutTwoSeparators)
{
    rbvlint::Baseline b;
    std::string err;
    EXPECT_TRUE(rbvlint::Baseline::parse(
        "# comment\n\nR1-nondet|src/a.cc|msg\n", b, err));
    EXPECT_EQ(b.size(), 1u);

    rbvlint::Baseline bad;
    EXPECT_FALSE(rbvlint::Baseline::parse("R1-nondet src/a.cc\n",
                                          bad, err));
    EXPECT_FALSE(err.empty());
}

TEST(BaselineTest, MatchSplitsFreshBaselinedAndStale)
{
    rbvlint::Baseline b;
    std::string err;
    ASSERT_TRUE(rbvlint::Baseline::parse(
        "R1-nondet|src/a.cc|old finding\n"
        "R2-global-state|src/b.cc|gone finding\n",
        b, err));

    const std::vector<rbvlint::Violation> findings = {
        {"src/a.cc", 10, "R1-nondet", "old finding"},
        {"src/a.cc", 20, "R1-nondet", "new finding"},
    };
    const auto m = b.match(findings);
    ASSERT_EQ(m.baselined.size(), 1u);
    EXPECT_EQ(m.baselined[0].line, 10);
    ASSERT_EQ(m.fresh.size(), 1u);
    EXPECT_EQ(m.fresh[0].message, "new finding");
    ASSERT_EQ(m.stale.size(), 1u);
    EXPECT_NE(m.stale[0].find("gone finding"), std::string::npos);
}

TEST(BaselineTest, DuplicateEntriesMatchMultisetStyle)
{
    rbvlint::Baseline b;
    b.add({"src/a.cc", 1, "R1-nondet", "dup"});
    b.add({"src/a.cc", 2, "R1-nondet", "dup"});

    const std::vector<rbvlint::Violation> three = {
        {"src/a.cc", 1, "R1-nondet", "dup"},
        {"src/a.cc", 2, "R1-nondet", "dup"},
        {"src/a.cc", 3, "R1-nondet", "dup"},
    };
    const auto m = b.match(three);
    EXPECT_EQ(m.baselined.size(), 2u);
    EXPECT_EQ(m.fresh.size(), 1u);
    EXPECT_TRUE(m.stale.empty());
}

TEST(BaselineTest, SerializeRoundTripsSorted)
{
    rbvlint::Baseline b;
    b.add({"src/z.cc", 1, "R9-rng-stream", "zzz"});
    b.add({"src/a.cc", 1, "R1-nondet", "aaa"});
    const std::string text = b.serialize();

    rbvlint::Baseline again;
    std::string err;
    ASSERT_TRUE(rbvlint::Baseline::parse(text, again, err)) << err;
    EXPECT_EQ(again.size(), 2u);
    EXPECT_EQ(again.serialize(), text);
    EXPECT_LT(text.find("R1-nondet|src/a.cc|aaa"),
              text.find("R9-rng-stream|src/z.cc|zzz"));
}

// ---- Allowlist v2: unused-entry reporting. ------------------------

TEST(AllowlistV2, ReportsEntriesThatNeverFired)
{
    rbvlint::Allowlist allow;
    std::string err;
    ASSERT_TRUE(rbvlint::Allowlist::parse(
        "R9 src/wl/fixture.cc\n"
        "R3 src/never/touched.cc\n",
        allow, err))
        << err;

    const auto vs = treeLint(
        makeUnits({{"r9_bad.cc", "src/wl/fixture.cc"}}), allow);
    EXPECT_EQ(countRule(vs, "R9-rng-stream"), 0);

    const auto unused = allow.unusedEntries();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "R3 src/never/touched.cc");
}
