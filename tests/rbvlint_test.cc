/**
 * @file
 * rbvlint rule-engine tests: every rule must fire on its seeded bad
 * fixture, stay silent on the good one, and honor both escape
 * mechanisms (inline pragma and allowlist).
 *
 * Fixtures live in tests/rbvlint_fixtures/ (path injected via
 * RBVLINT_FIXTURE_DIR). Rule applicability depends on the repo path
 * a file pretends to live at, so each case pairs fixture content
 * with a virtual src/ path.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

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

std::vector<rbvlint::Violation>
lintFixture(const std::string &name, const std::string &virtual_path,
            const rbvlint::Allowlist &allowlist = {})
{
    return rbvlint::lintFile(virtual_path, readFixture(name),
                             allowlist);
}

std::set<std::string>
rulesIn(const std::vector<rbvlint::Violation> &vs)
{
    std::set<std::string> rules;
    for (const auto &v : vs)
        rules.insert(v.rule);
    return rules;
}

} // namespace

struct FixtureCase
{
    const char *fixture;
    const char *virtualPath;
    const char *expectedRule; ///< nullptr: must be clean.
    int minViolations;
};

class RuleFixtures : public ::testing::TestWithParam<FixtureCase>
{
};

TEST_P(RuleFixtures, FiresExactlyOnSeededRule)
{
    const FixtureCase &c = GetParam();
    const auto vs = lintFixture(c.fixture, c.virtualPath);
    if (c.expectedRule == nullptr) {
        EXPECT_TRUE(vs.empty())
            << c.fixture << " should be clean; first: "
            << (vs.empty() ? "" : vs[0].rule + " " + vs[0].message);
        return;
    }
    EXPECT_GE(static_cast<int>(vs.size()), c.minViolations)
        << c.fixture;
    const auto rules = rulesIn(vs);
    EXPECT_EQ(rules, std::set<std::string>{c.expectedRule})
        << c.fixture << " fired unexpected rules";
    for (const auto &v : vs) {
        EXPECT_GT(v.line, 0);
        EXPECT_FALSE(v.message.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, RuleFixtures,
    ::testing::Values(
        FixtureCase{"r1_bad.cc", "src/wl/fixture.cc", "R1-nondet", 5},
        FixtureCase{"r1_good.cc", "src/wl/fixture.cc", nullptr, 0},
        FixtureCase{"r2_bad.cc", "src/sim/fixture.cc",
                    "R2-global-state", 4},
        FixtureCase{"r2_good.cc", "src/sim/fixture.cc", nullptr, 0},
        FixtureCase{"r3_bad.cc", "src/core/fixture.cc", "R3-io", 2},
        FixtureCase{"r3_good.cc", "src/core/fixture.cc", nullptr, 0},
        FixtureCase{"r4_bad_unguarded.hh", "src/sim/fixture.hh",
                    "R4-include", 1},
        FixtureCase{"r4_bad_using.hh", "src/sim/fixture.hh",
                    "R4-include", 1},
        FixtureCase{"r4_good.hh", "src/sim/fixture.hh", nullptr, 0},
        FixtureCase{"r5_bad.hh", "src/sim/fixture.hh", "R5-units", 3},
        FixtureCase{"r5_good.hh", "src/sim/fixture.hh", nullptr, 0},
        FixtureCase{"r6_bad.cc", "src/core/fixture.cc", "R6-swallow",
                    3},
        FixtureCase{"r6_good.cc", "src/core/fixture.cc", nullptr, 0},
        FixtureCase{"allow_inline.cc", "src/sim/fixture.cc", nullptr,
                    0}),
    [](const auto &info) {
        std::string name = info.param.fixture;
        for (char &ch : name)
            if (ch == '.')
                ch = '_';
        return name;
    });

TEST(RuleScoping, RulesRespectDirectoryBoundaries)
{
    // The same content that trips R1/R3 inside src/ is legal in
    // bench/ (benches print tables and may time themselves).
    const auto vs = lintFixture("r3_bad.cc", "bench/fixture.cc");
    EXPECT_TRUE(vs.empty());

    // R2/R5 apply to the simulator layers, not to src/exp or src/wl.
    const auto exp = lintFixture("r2_bad.cc", "src/exp/fixture.cc");
    EXPECT_TRUE(exp.empty());
    const auto units = lintFixture("r5_bad.hh", "src/exp/fixture.hh");
    EXPECT_TRUE(rulesIn(units).count("R5-units") == 0);
}

TEST(Allowlist, SuppressesByRuleAndPath)
{
    rbvlint::Allowlist allow;
    std::string err;
    ASSERT_TRUE(rbvlint::Allowlist::parse(
        "# comment\n"
        "R3 src/core/fixture.cc\n"
        "units src/sim/\n",
        allow, err))
        << err;

    EXPECT_TRUE(lintFixture("r3_bad.cc", "src/core/fixture.cc", allow)
                    .empty());
    // Different path: still fires.
    EXPECT_FALSE(
        lintFixture("r3_bad.cc", "src/core/other.cc", allow).empty());
    // Directory-prefix entry.
    EXPECT_TRUE(lintFixture("r5_bad.hh", "src/sim/fixture.hh", allow)
                    .empty());
    // The allowlist only silences its own rule.
    EXPECT_FALSE(
        lintFixture("r2_bad.cc", "src/sim/fixture.cc", allow).empty());
}

TEST(Allowlist, RejectsMalformedAndUnknownRules)
{
    rbvlint::Allowlist allow;
    std::string err;
    EXPECT_FALSE(rbvlint::Allowlist::parse("R3\n", allow, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(
        rbvlint::Allowlist::parse("R42 src/foo.cc\n", allow, err));
    EXPECT_FALSE(
        rbvlint::Allowlist::parse("R3 a b c\n", allow, err));
    // Duplicate entries are rejected (they hide stale suppressions).
    EXPECT_FALSE(rbvlint::Allowlist::parse(
        "R3 src/foo.cc\nR3 src/foo.cc\n", allow, err));
    EXPECT_NE(err.find("duplicate"), std::string::npos);
}

TEST(RuleIds, SpecMatchingAcceptsAllSpellings)
{
    EXPECT_TRUE(rbvlint::ruleMatches("*", "R2-global-state"));
    EXPECT_TRUE(rbvlint::ruleMatches("R2", "R2-global-state"));
    EXPECT_TRUE(
        rbvlint::ruleMatches("global-state", "R2-global-state"));
    EXPECT_TRUE(
        rbvlint::ruleMatches("R2-global-state", "R2-global-state"));
    EXPECT_FALSE(rbvlint::ruleMatches("R1", "R2-global-state"));
    EXPECT_FALSE(rbvlint::ruleMatches("units", "R2-global-state"));
    EXPECT_TRUE(rbvlint::ruleMatches("R7", "R7-det-iter"));
    EXPECT_TRUE(rbvlint::ruleMatches("det-iter", "R7-det-iter"));
    EXPECT_EQ(rbvlint::allRules().size(), 9u);
}

TEST(Determinism, RepeatedLintsAreIdentical)
{
    const std::string text = readFixture("r2_bad.cc");
    const auto a = rbvlint::lintFile("src/sim/fixture.cc", text, {});
    const auto b = rbvlint::lintFile("src/sim/fixture.cc", text, {});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].line, b[i].line);
        EXPECT_EQ(a[i].rule, b[i].rule);
        EXPECT_EQ(a[i].message, b[i].message);
    }
}
