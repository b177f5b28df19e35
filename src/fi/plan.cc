#include "fi/plan.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "core/check.hh"
#include "stats/rng.hh"

namespace rbv::fi {

namespace {

struct KindEntry
{
    FaultKind kind;
    const char *name;
    /// Parameter keys this fault accepts (null-terminated list).
    std::array<const char *, 5> keys;
};

constexpr std::array<KindEntry, 15> kKinds = {{
    {FaultKind::IrqDrop, "irq-drop", {"p", nullptr}},
    {FaultKind::IrqCoalesce, "irq-coalesce", {"p", nullptr}},
    {FaultKind::CtrSaturate, "ctr-saturate", {"cap", nullptr}},
    {FaultKind::CtrCorrupt, "ctr-corrupt", {"p", nullptr}},
    {FaultKind::CoreSlow,
     "core-slow",
     {"core", "from-ms", "for-ms", "frac", nullptr}},
    {FaultKind::ReqStuck, "req-stuck", {"p", "mult", nullptr}},
    {FaultKind::SysStall, "sys-stall", {"p", "cycles", nullptr}},
    {FaultKind::CtxLoss, "ctx-loss", {"p", nullptr}},
    {FaultKind::JobCrash, "job-crash", {"p", nullptr}},
    {FaultKind::JobTimeout, "job-timeout", {"p", nullptr}},
    {FaultKind::NodeCrash, "node-crash", {"node", "at-ms", nullptr}},
    {FaultKind::NodeDegrade,
     "node-degrade",
     {"node", "from-ms", "for-ms", "mult", nullptr}},
    {FaultKind::LinkDrop, "link-drop", {"node", "p", nullptr}},
    {FaultKind::LinkDelay,
     "link-delay",
     {"node", "p", "add-us", nullptr}},
    {FaultKind::LinkPartition,
     "link-partition",
     {"a", "b", "from-ms", "for-ms", nullptr}},
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

bool acceptsKey(const KindEntry &entry, const std::string &key)
{
    for (const char *k : entry.keys) {
        if (k == nullptr)
            break;
        if (key == k)
            return true;
    }
    return false;
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

/// The whole of @p text as a finite number, or false.
bool parseFinite(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0' && std::isfinite(out);
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
        if (!acceptsKey(*entry, key)) {
            error = "fault \"" + name + "\" has no parameter \"" + key +
                    "\"";
            return false;
        }
        // Every parameter is numeric, and an infinite or NaN one
        // reaches casts to integer ticks downstream.
        double number = 0.0;
        if (!parseFinite(value, number)) {
            error = "parameter \"" + key + "\" of fault \"" + name +
                    "\" is not a finite number: \"" + value + "\"";
            return false;
        }
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
    RBV_CHECK(parseFinite(it->second, v),
              "parameter \"" << key << "\" of fault \""
                             << faultName(kind)
                             << "\" is not a finite number: \""
                             << it->second << "\"");
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

double unitIntervalHash(std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t id)
{
    stats::SplitMix64 sm(seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                         (id * 0xbf58476d1ce4e5b9ULL));
    sm.next();
    return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

} // namespace rbv::fi
