/**
 * @file
 * CLI flag tests: every flag a bench/example registers has a
 * non-empty help string in the catalogue, the standard flags are all
 * documented, the generated --help text covers the accepted set, and
 * the typed getters reject values that do not parse whole and in
 * range.
 */

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/cli.hh"
#include "exp/runner.hh"

using namespace rbv::exp;

namespace {

/**
 * Union of the accepted-flag lists of every bench and example binary
 * (each binary's Cli constructor call). A new binary flag must be
 * added here AND to the catalogue in cli.cc; this test fails loudly
 * when the catalogue entry is missing.
 */
const std::vector<std::string> BinaryFlags = {
    "app",  "arrival", "bank", "checkpoint-every", "csv",
    "deadline-us", "diag-out", "diagnose", "duration",
    "faults", "hedge", "jobs", "k", "link-us", "max-outstanding",
    "ms", "no-hist", "qps",
    "quiet", "requests", "retries", "rows", "rpc-retries", "rss-log",
    "rubis", "runs", "seed", "topology", "tpch", "webwork-requests",
    "window",
};

TEST(FlagHelp, EveryBinaryFlagIsDocumented)
{
    for (const auto &name : BinaryFlags)
        EXPECT_FALSE(flagHelp(name).empty())
            << "flag --" << name << " has no help string in cli.cc";
}

TEST(FlagHelp, EveryStandardFlagIsDocumented)
{
    for (const auto &name : standardFlagNames())
        EXPECT_FALSE(flagHelp(name).empty())
            << "standard flag --" << name << " has no help string";
}

TEST(FlagHelp, EveryCatalogueEntryIsNonEmpty)
{
    const auto names = documentedFlagNames();
    EXPECT_FALSE(names.empty());
    for (const auto &name : names) {
        EXPECT_FALSE(name.empty());
        EXPECT_FALSE(flagHelp(name).empty()) << name;
    }
}

TEST(FlagHelp, CatalogueCoversExactlyTheKnownFlags)
{
    // The catalogue must not drift: it is the binary flags plus the
    // standard flags, nothing else (dead entries hide typos).
    std::vector<std::string> expected = BinaryFlags;
    for (const auto &name : standardFlagNames())
        expected.push_back(name);
    std::sort(expected.begin(), expected.end());

    std::vector<std::string> actual = documentedFlagNames();
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
}

TEST(FlagHelp, UnknownFlagHasNoHelp)
{
    EXPECT_TRUE(flagHelp("request").empty()); // the classic typo
    EXPECT_TRUE(flagHelp("").empty());
}

TEST(HelpText, ListsEveryAcceptedFlagWithItsHelp)
{
    const std::vector<std::string> names = {"seed", "requests",
                                            "trace-out"};
    const std::string text = helpText("bench_x", names);
    EXPECT_NE(text.find("usage: bench_x"), std::string::npos);
    for (const auto &name : names) {
        EXPECT_NE(text.find("--" + name), std::string::npos);
        EXPECT_NE(text.find(flagHelp(name)), std::string::npos);
    }
}

TEST(HelpText, FlagsUnknownToTheCatalogueAreMarked)
{
    const std::string text =
        helpText("x", {"seed", "not-a-real-flag"});
    EXPECT_NE(text.find("--not-a-real-flag"), std::string::npos);
    EXPECT_NE(text.find("(undocumented)"), std::string::npos);
}

TEST(Cli, StandardFlagsAcceptedByValidatingCtor)
{
    const char *argv[] = {"prog", "--seed", "7",
                          "--trace-out=/tmp/t.json",
                          "--metrics-out", "/tmp/m.txt", "--prof"};
    // Validating ctor with only binary-specific names: the standard
    // flags must pass validation implicitly (no exit(2)).
    const Cli cli(7, const_cast<char **>(argv), {"seed"});
    EXPECT_EQ(cli.getU64("seed", 0), 7u);
    EXPECT_EQ(cli.getStr("trace-out", ""), "/tmp/t.json");
    EXPECT_EQ(cli.getStr("metrics-out", ""), "/tmp/m.txt");
    EXPECT_TRUE(cli.getBool("prof", false));
}

TEST(CliDeath, HelpPrintsDocumentationAndExitsZero)
{
    const char *argv[] = {"prog", "--help"};
    EXPECT_EXIT(
        {
            const Cli cli(2, const_cast<char **>(argv),
                          {"seed", "requests"});
        },
        testing::ExitedWithCode(0), "");
}

TEST(CliDeath, UnknownFlagStillExitsTwo)
{
    const char *argv[] = {"prog", "--request", "5"};
    EXPECT_EXIT(
        {
            const Cli cli(3, const_cast<char **>(argv),
                          {"seed", "requests"});
        },
        testing::ExitedWithCode(2), "unknown flag --request");
}

TEST(Cli, ServeFlagsParseWithTheDocumentedShapes)
{
    const char *argv[] = {"rbv_serve",       "--qps",     "25000",
                          "--arrival=burst", "--duration", "2.5",
                          "--checkpoint-every", "5000",   "--window",
                          "256"};
    const Cli cli(10, const_cast<char **>(argv),
                  {"qps", "arrival", "duration", "checkpoint-every",
                   "window"});
    EXPECT_DOUBLE_EQ(cli.getDouble("qps", 0.0), 25000.0);
    EXPECT_EQ(cli.getStr("arrival", ""), "burst");
    EXPECT_DOUBLE_EQ(cli.getDouble("duration", 0.0), 2.5);
    EXPECT_EQ(cli.getInt("checkpoint-every", 0), 5000);
    EXPECT_EQ(cli.getInt("window", 0), 256);
}

TEST(CliDeath, ServeFlagTypoIsRejected)
{
    const char *argv[] = {"rbv_serve", "--qsp", "1000"};
    EXPECT_EXIT(
        {
            const Cli cli(3, const_cast<char **>(argv),
                          {"qps", "arrival", "duration"});
        },
        testing::ExitedWithCode(2), "unknown flag --qsp");
}

TEST(Cli, ClusterFlagsParseWithTheDocumentedShapes)
{
    const char *argv[] = {"rbv_cluster",
                          "--topology=lb:1:20,app:3:80",
                          "--link-us",     "120",
                          "--deadline-us", "1500",
                          "--rpc-retries", "4",
                          "--hedge",       "0.95"};
    const Cli cli(10, const_cast<char **>(argv),
                  {"topology", "link-us", "deadline-us",
                   "rpc-retries", "hedge"});
    EXPECT_EQ(cli.getStr("topology", ""), "lb:1:20,app:3:80");
    EXPECT_DOUBLE_EQ(cli.getDouble("link-us", 0.0), 120.0);
    EXPECT_DOUBLE_EQ(cli.getDouble("deadline-us", 0.0), 1500.0);
    EXPECT_EQ(cli.getInt("rpc-retries", 0), 4);
    EXPECT_DOUBLE_EQ(cli.getDouble("hedge", 0.0), 0.95);
}

TEST(CliDeath, ClusterFlagTypoIsRejected)
{
    const char *argv[] = {"rbv_cluster", "--topolgy", "lb:1"};
    EXPECT_EXIT(
        {
            const Cli cli(3, const_cast<char **>(argv),
                          {"topology", "link-us", "deadline-us"});
        },
        testing::ExitedWithCode(2), "unknown flag --topolgy");
}

/** Parse "--<name> <value>" with the unvalidated ctor. */
Cli
oneFlag(const char *name, const char *value)
{
    const std::string flag = std::string("--") + name;
    const char *argv[] = {"prog", flag.c_str(), value};
    return Cli(3, const_cast<char **>(argv));
}

TEST(Cli, StrictGettersAcceptWholeInRangeValues)
{
    EXPECT_EQ(oneFlag("requests", "0").getInt("requests", 9), 0);
    EXPECT_EQ(oneFlag("requests", "1000000").getInt("requests", 9),
              1000000);
    EXPECT_EQ(oneFlag("seed", "20101").getU64("seed", 9), 20101u);
    EXPECT_EQ(oneFlag("seed", "18446744073709551615").getU64("seed", 9),
              18446744073709551615ull);
    EXPECT_DOUBLE_EQ(oneFlag("qps", "2e4").getDouble("qps", 0.0),
                     20000.0);
    EXPECT_DOUBLE_EQ(oneFlag("link-us", "-1.5").getDouble("link-us", 0.0),
                     -1.5);
    EXPECT_FALSE(oneFlag("quiet", "off").getBool("quiet", true));
    EXPECT_EQ(jobsFlag(oneFlag("jobs", "0")), 0);
    EXPECT_EQ(jobsFlag(oneFlag("jobs", "1024")), 1024);
    // An empty value is the default, as for getStr.
    EXPECT_EQ(oneFlag("requests", "").getInt("requests", 9), 9);
}

TEST(CliDeath, GarbageNumbersExitTwoNamingFlagAndValue)
{
    const struct
    {
        const char *flag;
        const char *value;
    } cases[] = {
        {"requests", "abc"},   {"requests", "-5"},
        {"requests", "12x"},   {"requests", "1e6"},
        {"requests", " 7"},    {"requests", "99999999999999999999"},
        {"requests", "2147483648"},
        {"seed", "-1"},        {"seed", "+1"},
        {"seed", "7.5"},       {"seed", "18446744073709551616"},
        {"qps", "nan"},        {"qps", "inf"},
        {"qps", "-inf"},       {"qps", "1e400"},
        {"qps", "20k"},        {"quiet", "maybe"},
    };
    for (const auto &c : cases) {
        std::string expect = std::string("--") + c.flag + ": \"";
        for (const char ch : std::string(c.value)) {
            if (std::string("+.[]()*?^$|\\").find(ch) !=
                std::string::npos)
                expect += '\\';
            expect += ch;
        }
        expect += '"';
        EXPECT_EXIT(
            {
                const Cli cli = oneFlag(c.flag, c.value);
                if (std::string(c.flag) == "seed")
                    (void)cli.getU64(c.flag, 0);
                else if (std::string(c.flag) == "qps")
                    (void)cli.getDouble(c.flag, 0.0);
                else if (std::string(c.flag) == "quiet")
                    (void)cli.getBool(c.flag, false);
                else
                    (void)cli.getInt(c.flag, 0);
                std::exit(0);
            },
            testing::ExitedWithCode(2), expect)
            << c.flag << " " << c.value;
    }
}

TEST(CliDeath, JobsOutsideItsRangeExitsTwo)
{
    // Parsed only: nothing here starts a thread.
    for (const char *v : {"1025", "-1", "100000"}) {
        EXPECT_EXIT(
            {
                (void)jobsFlag(oneFlag("jobs", v));
                std::exit(0);
            },
            testing::ExitedWithCode(2), "--jobs.*\\[0, 1024\\]")
            << v;
    }
}

} // namespace
