/**
 * @file
 * Fault-injection plans: the declarative description of which faults
 * a run injects, parsed from the `--faults=<spec>` CLI flag or built
 * programmatically.
 *
 * A plan is an ordered list of fault specs. The CLI grammar is
 *
 *     <spec>     ::= <fault> [';' <fault>]...
 *     <fault>    ::= <name> [ '(' <param> [',' <param>]... ')' ]
 *     <param>    ::= <key> '=' <value>
 *
 * e.g. `--faults="irq-drop(p=0.2);req-stuck(p=0.05,mult=4)"`.
 * Unknown fault names and parameters, values that are not finite
 * numbers, and values outside the parameter's declared range (ids
 * are whole numbers, times nonnegative, probabilities in [0, 1]; see
 * the table in plan.cc) are parse errors — a typo in a fault plan
 * must never silently inject nothing (or inject something unbounded).
 *
 * Plans carry no randomness: the same plan combined with the same
 * scenario seed produces the identical injection sequence regardless
 * of the host thread count (each scenario run owns a private
 * FaultSession seeded from the scenario seed; see session.hh).
 */

#ifndef RBV_FI_PLAN_HH
#define RBV_FI_PLAN_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace rbv::fi {

/** Every fault the fi layer can inject, by pipeline layer. */
enum class FaultKind : std::uint8_t
{
    // --- sim: degraded hardware telemetry ---------------------------
    IrqDrop,      ///< Lost counter-overflow interrupts.
    IrqCoalesce,  ///< Delayed/merged counter-overflow interrupts.
    CtrSaturate,  ///< Counter saturation at a register cap.
    CtrCorrupt,   ///< Transient bit corruption of counter reads.
    CoreSlow,     ///< Transient per-core slowdown (noisy neighbor).

    // --- os: misbehaving requests and kernel paths ------------------
    ReqStuck,     ///< Stuck/looping request (re-executes its work).
    SysStall,     ///< System call stalls in the kernel.
    CtxLoss,      ///< Sampling-context loss at request switches.

    // --- exp: failing jobs in the parallel runner -------------------
    JobCrash,     ///< Job body throws.
    JobTimeout,   ///< Job body exceeds its (simulated) deadline.

    // --- dist: cluster node and link faults -------------------------
    NodeCrash,     ///< Node goes fail-silent at a given time.
    NodeDegrade,   ///< Node executes slower for a time window.
    LinkDrop,      ///< Probabilistic message loss on a node's links.
    LinkDelay,     ///< Probabilistic extra latency on a node's links.
    LinkPartition, ///< Two nodes cannot talk for a time window.
};

/** Canonical CLI name of a fault kind ("irq-drop", "req-stuck", ...). */
const char *faultName(FaultKind kind);

/** Whether a kind belongs to the cluster (node/link) fault group. */
bool isClusterFault(FaultKind kind);

/** One configured fault: a kind plus its parameters. */
struct FaultSpec
{
    FaultKind kind = FaultKind::IrqDrop;

    /** Raw parameters, keyed by the grammar's <key> tokens. */
    std::map<std::string, std::string> params;

    /**
     * Numeric parameter, or @p def if absent. A value that is not a
     * finite number inside the parameter's declared range aborts:
     * parse() rejects one, so it can only come from a spec built by
     * hand.
     */
    double param(const std::string &key, double def) const;
};

/**
 * An ordered collection of fault specs. Order matters only for log
 * readability; injectors act independently.
 */
class FaultPlan
{
  public:
    /**
     * Parse a CLI spec string. Returns false and sets @p error (which
     * names the fault and the key) on an unknown fault name, an
     * unknown parameter, a value that is not a finite number or lies
     * outside the parameter's range, or a grammar error; parsing is
     * all-or-nothing.
     */
    static bool parse(const std::string &spec, FaultPlan &out,
                      std::string &error);

    /** Programmatic builder. */
    FaultPlan &add(FaultSpec spec);

    /** Convenience builder: kind + (key, numeric value) pairs. */
    FaultPlan &add(FaultKind kind,
                   std::vector<std::pair<std::string, double>> params);

    bool empty() const { return specs_.empty(); }
    std::size_t size() const { return specs_.size(); }
    const std::vector<FaultSpec> &specs() const { return specs_; }

    /** First spec of the given kind; null if absent. */
    const FaultSpec *find(FaultKind kind) const;

    /** Whether any spec targets the simulated run (non-exp layer). */
    bool hasScenarioFaults() const;

    /** Whether any spec targets the experiment runner layer. */
    bool hasJobFaults() const;

    /** Whether any spec targets the cluster layer (node/link). */
    bool hasClusterFaults() const;

    /** Canonical one-line rendering (re-parseable by parse()). */
    std::string summary() const;

  private:
    std::vector<FaultSpec> specs_;
};

/** Thrown by the exp-layer injectors (job crash / job timeout). */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * The whole of @p text as a finite number, or false: the one numeric
 * parse behind fault parameters, topology sizes and numeric CLI
 * flags, so trailing garbage, NaN and infinities never get in.
 */
bool parseFinite(const std::string &text, double &out);

/** Deterministic 64-bit FNV-1a hash of a string (platform-stable). */
std::uint64_t stringHash64(const std::string &s);

/**
 * Deterministic uniform [0, 1) value from (seed, salt, id): the
 * per-entity fault lottery. Being stateless, it is invariant across
 * host thread counts and evaluation order.
 */
double unitIntervalHash(std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t id);

} // namespace rbv::fi

#endif // RBV_FI_PLAN_HH
