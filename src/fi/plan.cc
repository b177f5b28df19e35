#include "fi/plan.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "core/check.hh"
#include "sim/counters.hh"
#include "sim/types.hh"
#include "stats/rng.hh"

namespace rbv::fi {

namespace {

/**
 * Largest time parameter (ms): far past any run, and small enough
 * that from-ms + for-ms, in cycles, stays well inside a 64-bit Tick.
 */
constexpr double MaxMs = 1e9;

/** Largest node or core id: ids are ints. */
constexpr double MaxId = std::numeric_limits<int>::max();

/** Largest slowdown multiplier. */
constexpr double MaxMult = 1000.0;

/** One parameter key and the closed range its value must lie in. */
struct ParamRange
{
    const char *key = nullptr;
    double lo = 0.0;
    double hi = 0.0;
    /// Ids must also be whole numbers.
    bool whole = false;
};

constexpr ParamRange prob(const char *key) { return {key, 0.0, 1.0}; }
constexpr ParamRange timeMs(const char *key) { return {key, 0.0, MaxMs}; }
constexpr ParamRange mult(const char *key) { return {key, 1.0, MaxMult}; }
constexpr ParamRange id(const char *key) { return {key, 0.0, MaxId, true}; }

/// A node id where -1 means "every node".
constexpr ParamRange
anyNode(const char *key)
{
    return {key, -1.0, MaxId, true};
}

struct KindEntry
{
    FaultKind kind;
    const char *name;
    /// Parameters this fault accepts; unused slots have a null key.
    std::array<ParamRange, 4> params;
};

constexpr std::array<KindEntry, 15> kKinds = {{
    {FaultKind::IrqDrop, "irq-drop", {prob("p")}},
    {FaultKind::IrqCoalesce, "irq-coalesce", {prob("p")}},
    {FaultKind::CtrSaturate,
     "ctr-saturate",
     {ParamRange{"cap", 0.0,
                 static_cast<double>(sim::CounterRegisterMax)}}},
    {FaultKind::CtrCorrupt, "ctr-corrupt", {prob("p")}},
    {FaultKind::CoreSlow,
     "core-slow",
     {id("core"), timeMs("from-ms"), timeMs("for-ms"),
      ParamRange{"frac", 0.0, 0.95}}},
    {FaultKind::ReqStuck, "req-stuck", {prob("p"), mult("mult")}},
    {FaultKind::SysStall,
     "sys-stall",
     {prob("p"), ParamRange{"cycles", 0.0,
                            static_cast<double>(sim::msToCycles(MaxMs))}}},
    {FaultKind::CtxLoss, "ctx-loss", {prob("p")}},
    {FaultKind::JobCrash, "job-crash", {prob("p")}},
    {FaultKind::JobTimeout, "job-timeout", {prob("p")}},
    {FaultKind::NodeCrash, "node-crash", {id("node"), timeMs("at-ms")}},
    {FaultKind::NodeDegrade,
     "node-degrade",
     {id("node"), timeMs("from-ms"), timeMs("for-ms"), mult("mult")}},
    {FaultKind::LinkDrop, "link-drop", {anyNode("node"), prob("p")}},
    {FaultKind::LinkDelay,
     "link-delay",
     {anyNode("node"), prob("p"),
      ParamRange{"add-us", 0.0, MaxMs * 1000.0}}},
    {FaultKind::LinkPartition,
     "link-partition",
     {id("a"), id("b"), timeMs("from-ms"), timeMs("for-ms")}},
}};

bool clusterKind(FaultKind kind)
{
    switch (kind) {
      case FaultKind::NodeCrash:
      case FaultKind::NodeDegrade:
      case FaultKind::LinkDrop:
      case FaultKind::LinkDelay:
      case FaultKind::LinkPartition:
        return true;
      default:
        return false;
    }
}

const KindEntry *entryFor(FaultKind kind)
{
    for (const auto &e : kKinds)
        if (e.kind == kind)
            return &e;
    return nullptr;
}

const KindEntry *entryFor(const std::string &name)
{
    for (const auto &e : kKinds)
        if (name == e.name)
            return &e;
    return nullptr;
}

const ParamRange *rangeFor(const KindEntry &entry, const std::string &key)
{
    for (const auto &range : entry.params)
        if (range.key != nullptr && key == range.key)
            return &range;
    return nullptr;
}

/// Trim ASCII whitespace from both ends.
std::string trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\n\r");
    if (b == std::string::npos)
        return {};
    std::size_t e = s.find_last_not_of(" \t\n\r");
    return s.substr(b, e - b + 1);
}

/**
 * Parameter @p key of fault @p entry as a number inside its declared
 * range, or false with @p error naming the fault, the key and the
 * range. Every integer cast and tick conversion downstream relies on
 * this check.
 */
bool checkedValue(const KindEntry &entry, const std::string &key,
                  const std::string &text, double &out,
                  std::string &error)
{
    const auto where = [&] {
        return "parameter \"" + key + "\" of fault \"" + entry.name +
               "\"";
    };
    const ParamRange *range = rangeFor(entry, key);
    if (range == nullptr) {
        error = "fault \"" + std::string(entry.name) +
                "\" has no parameter \"" + key + "\"";
        return false;
    }
    if (!parseFinite(text, out)) {
        error = where() + " is not a finite number: \"" + text + "\"";
        return false;
    }
    if (out < range->lo || out > range->hi ||
        (range->whole && out != std::floor(out))) {
        char bounds[64];
        std::snprintf(bounds, sizeof bounds, "[%.15g, %.15g]", range->lo,
                      range->hi);
        error = where() + " must be " +
                (range->whole ? "a whole number" : "a number") + " in " +
                bounds + ": \"" + text + "\"";
        return false;
    }
    return true;
}

bool parseOneFault(const std::string &text, FaultSpec &out,
                   std::string &error)
{
    std::string body = trim(text);
    std::string name = body;
    std::string argList;

    std::size_t open = body.find('(');
    if (open != std::string::npos) {
        if (body.back() != ')') {
            error = "missing ')' in fault \"" + body + "\"";
            return false;
        }
        name = trim(body.substr(0, open));
        argList = body.substr(open + 1, body.size() - open - 2);
    }

    const KindEntry *entry = entryFor(name);
    if (entry == nullptr) {
        error = "unknown fault \"" + name + "\"";
        return false;
    }
    out.kind = entry->kind;
    out.params.clear();

    std::stringstream ss(argList);
    std::string item;
    while (std::getline(ss, item, ',')) {
        item = trim(item);
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            error = "parameter \"" + item + "\" of fault \"" + name +
                    "\" is not key=value";
            return false;
        }
        std::string key = trim(item.substr(0, eq));
        std::string value = trim(item.substr(eq + 1));
        double number = 0.0;
        if (!checkedValue(*entry, key, value, number, error))
            return false;
        out.params[key] = value;
    }
    return true;
}

} // namespace

const char *faultName(FaultKind kind)
{
    const KindEntry *entry = entryFor(kind);
    return entry != nullptr ? entry->name : "?";
}

double FaultSpec::param(const std::string &key, double def) const
{
    auto it = params.find(key);
    if (it == params.end())
        return def;
    double v = 0.0;
    std::string error;
    RBV_CHECK(checkedValue(*entryFor(kind), key, it->second, v, error),
              error);
    return v;
}

bool FaultPlan::parse(const std::string &spec, FaultPlan &out,
                      std::string &error)
{
    FaultPlan plan;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ';')) {
        if (trim(item).empty())
            continue;
        FaultSpec fs;
        if (!parseOneFault(item, fs, error))
            return false;
        plan.add(std::move(fs));
    }
    if (plan.empty()) {
        error = "empty fault plan \"" + spec + "\"";
        return false;
    }
    out = std::move(plan);
    return true;
}

FaultPlan &FaultPlan::add(FaultSpec spec)
{
    specs_.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::add(FaultKind kind,
               std::vector<std::pair<std::string, double>> params)
{
    FaultSpec fs;
    fs.kind = kind;
    for (const auto &[key, value] : params) {
        std::ostringstream os;
        os << value;
        fs.params[key] = os.str();
    }
    return add(std::move(fs));
}

const FaultSpec *FaultPlan::find(FaultKind kind) const
{
    for (const auto &fs : specs_)
        if (fs.kind == kind)
            return &fs;
    return nullptr;
}

bool FaultPlan::hasScenarioFaults() const
{
    return std::any_of(specs_.begin(), specs_.end(), [](const auto &fs) {
        return fs.kind != FaultKind::JobCrash &&
               fs.kind != FaultKind::JobTimeout &&
               !clusterKind(fs.kind);
    });
}

bool FaultPlan::hasClusterFaults() const
{
    return std::any_of(specs_.begin(), specs_.end(), [](const auto &fs) {
        return clusterKind(fs.kind);
    });
}

bool isClusterFault(FaultKind kind)
{
    return clusterKind(kind);
}

bool FaultPlan::hasJobFaults() const
{
    return find(FaultKind::JobCrash) != nullptr ||
           find(FaultKind::JobTimeout) != nullptr;
}

std::string FaultPlan::summary() const
{
    std::ostringstream os;
    bool firstSpec = true;
    for (const auto &fs : specs_) {
        if (!firstSpec)
            os << ';';
        firstSpec = false;
        os << faultName(fs.kind);
        if (!fs.params.empty()) {
            os << '(';
            bool firstParam = true;
            for (const auto &[key, value] : fs.params) {
                if (!firstParam)
                    os << ',';
                firstParam = false;
                os << key << '=' << value;
            }
            os << ')';
        }
    }
    return os.str();
}

std::uint64_t stringHash64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a offset basis
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL; // FNV prime
    }
    return h;
}

bool parseFinite(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0' && std::isfinite(out);
}

double unitIntervalHash(std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t id)
{
    stats::SplitMix64 sm(seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                         (id * 0xbf58476d1ce4e5b9ULL));
    sm.next();
    return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

} // namespace rbv::fi
