/**
 * @file
 * Minimal command-line flag parsing for the bench/example binaries.
 *
 * Flags are "--name value", "--name=value", or "--name" (boolean).
 * Every bench accepts at least --seed and --requests so experiments
 * are reproducible and scalable, plus the engine flags --jobs and
 * --quiet.
 *
 * Binaries construct Cli with their accepted flag names; an unknown
 * flag (e.g. the typo "--request") aborts with a clear error instead
 * of being silently ignored. The typed getters are strict in the same
 * way: a value that does not parse as a whole, in-range number (or a
 * boolean word) prints an error naming the flag and the value, then
 * exits with status 2.
 *
 * Every validating binary also accepts the standard flags
 * (standardFlagNames()): --help prints generated documentation for
 * the accepted set, and --trace-out / --metrics-out / --trace-buf /
 * --prof drive the rbv::obs observability layer (see
 * docs/OBSERVABILITY.md). Each flag name has a registered help string
 * in flagHelp(); cli_test asserts the catalogue is complete.
 */

#ifndef RBV_EXP_CLI_HH
#define RBV_EXP_CLI_HH

#include <climits>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace rbv::exp {

/** Parsed command-line flags. */
class Cli
{
  public:
    /** Parse without validation (tests, fully dynamic consumers). */
    Cli(int argc, char **argv);

    /**
     * Parse and validate: any flag outside @p known prints an error
     * naming the offender and the accepted flags, then exits with
     * status 2.
     */
    Cli(int argc, char **argv,
        std::initializer_list<const char *> known);

    bool has(const std::string &name) const;

    /** @name Typed getters: absent or empty is @p def. */
    /// @{
    std::string getStr(const std::string &name,
                       const std::string &def) const;

    /**
     * A whole decimal number in [@p lo, @p hi]. Integer flags are
     * counts, so the default range is [0, INT_MAX]: a negative count
     * is an error, and every count fits the int its caller may cast
     * it to.
     */
    long getInt(const std::string &name, long def, long lo = 0,
                long hi = INT_MAX) const;

    /** A finite number (no NaN, no infinity). */
    double getDouble(const std::string &name, double def) const;

    /** A whole unsigned decimal number (no sign). */
    std::uint64_t getU64(const std::string &name,
                         std::uint64_t def) const;

    /**
     * Boolean accessor: a bare "--flag" (or =1/true/yes/on) is true,
     * =0/false/no/off is false, absent is @p def.
     */
    bool getBool(const std::string &name, bool def) const;
    /// @}

    /** Parsed flag names not present in @p known. */
    std::vector<std::string>
    unknown(const std::vector<std::string> &known) const;

  private:
    /** Report a flag value that does not parse, then exit 2. */
    [[noreturn]] void badValue(const std::string &name,
                               const std::string &expected) const;

    std::string prog;
    std::map<std::string, std::string> flags;
};

/**
 * Flags every validating binary accepts implicitly: --help plus the
 * observability flags consumed by ObsScope (exp/obsio.hh).
 */
const std::vector<std::string> &standardFlagNames();

/**
 * One-line documentation for a registered flag name; empty for an
 * unregistered name (cli_test asserts no binary uses one).
 */
std::string flagHelp(const std::string &name);

/** Names with a registered (non-empty) flagHelp() entry. */
std::vector<std::string> documentedFlagNames();

/**
 * Generated --help text: usage line plus one "  --name  help" row per
 * accepted flag, sorted by name.
 */
std::string helpText(const std::string &argv0,
                     const std::vector<std::string> &names);

} // namespace rbv::exp

#endif // RBV_EXP_CLI_HH
