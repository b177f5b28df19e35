/**
 * @file
 * rbv::obs tests: histogram bucket math at exact boundaries, counter
 * and histogram shard merge under the runner's --jobs parallelism
 * (merged totals must equal a serial run's), and a minimal JSON
 * schema check over the Chrome trace_event export.
 *
 * The whole file also compiles and passes under -DRBV_OBS=0, where a
 * Session is inert: recording assertions are gated on
 * obs::attached(), and the writers must still emit valid (empty)
 * documents.
 */

#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/model/distance.hh"
#include "core/model/kmedoids.hh"
#include "exp/runner.hh"
#include "obs/obs.hh"

using namespace rbv;
using namespace rbv::obs;

namespace {

// ------------------------------------------------ minimal JSON model

/** Just enough JSON to validate the trace export structurally. */
struct JsonValue
{
    enum class Kind
    {
        Object,
        Array,
        String,
        Number,
        Bool,
        Null,
    };

    Kind kind = Kind::Null;
    std::map<std::string, JsonValue> object;
    std::vector<JsonValue> array;
    std::string str;
    double num = 0.0;
    bool boolean = false;

    bool
    has(const std::string &key) const
    {
        return kind == Kind::Object && object.count(key) > 0;
    }

    const JsonValue &
    at(const std::string &key) const
    {
        return object.at(key);
    }
};

/** Recursive-descent parser; throws std::runtime_error on bad input. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    JsonValue
    parse()
    {
        const JsonValue v = value();
        skipWs();
        if (pos != s.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw std::runtime_error("json error at byte " +
                                 std::to_string(pos) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= s.size())
            fail("unexpected end");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    JsonValue
    value()
    {
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
          case 'f':
            return boolean();
          case 'n':
            return null();
          default:
            return number();
        }
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        if (peek() == '}') {
            ++pos;
            return v;
        }
        for (;;) {
            const JsonValue key = string();
            expect(':');
            v.object[key.str] = value();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        if (peek() == ']') {
            ++pos;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        expect('"');
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                if (pos + 1 >= s.size())
                    fail("bad escape");
                ++pos;
            }
            v.str += s[pos++];
        }
        if (pos >= s.size())
            fail("unterminated string");
        ++pos;
        return v;
    }

    JsonValue
    number()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        const std::size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E'))
            ++pos;
        if (pos == start)
            fail("expected number");
        std::size_t used = 0;
        v.num = std::stod(s.substr(start, pos - start), &used);
        if (used != pos - start)
            fail("malformed number");
        return v;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (s.compare(pos, 4, "true") == 0) {
            v.boolean = true;
            pos += 4;
        } else if (s.compare(pos, 5, "false") == 0) {
            pos += 5;
        } else {
            fail("expected boolean");
        }
        return v;
    }

    JsonValue
    null()
    {
        if (s.compare(pos, 4, "null") != 0)
            fail("expected null");
        pos += 4;
        return JsonValue{};
    }

    const std::string &s;
    std::size_t pos = 0;
};

/** Schema check for one trace_event entry. */
void
checkTraceEvent(const JsonValue &ev)
{
    ASSERT_EQ(ev.kind, JsonValue::Kind::Object);
    ASSERT_TRUE(ev.has("ph"));
    ASSERT_TRUE(ev.has("name"));
    ASSERT_TRUE(ev.has("pid"));
    const std::string ph = ev.at("ph").str;
    if (ph == "M") {
        // Metadata: process_name / thread_name with an args.name.
        ASSERT_TRUE(ev.at("name").str == "process_name" ||
                    ev.at("name").str == "thread_name");
        ASSERT_TRUE(ev.has("args"));
        ASSERT_TRUE(ev.at("args").has("name"));
        return;
    }
    ASSERT_TRUE(ph == "X" || ph == "i" || ph == "b" || ph == "e")
        << "unexpected phase " << ph;
    ASSERT_TRUE(ev.has("cat"));
    ASSERT_TRUE(ev.has("ts"));
    ASSERT_TRUE(ev.has("tid"));
    ASSERT_EQ(ev.at("ts").kind, JsonValue::Kind::Number);
    if (ph == "X") {
        ASSERT_TRUE(ev.has("dur"));
    }
    if (ph == "i") {
        ASSERT_EQ(ev.at("s").str, "t");
    }
    if (ph == "b" || ph == "e") {
        ASSERT_TRUE(ev.has("id"));
    }
}

exp::ScenarioConfig
tinyScenario()
{
    exp::ScenarioConfig cfg;
    cfg.app = wl::App::WebServer;
    cfg.requests = 12;
    cfg.warmup = 2;
    cfg.concurrency = 4;
    return cfg;
}

std::vector<exp::Job>
tinyJobs()
{
    exp::ScenarioGrid grid(tinyScenario());
    grid.replicates(4);
    return grid.jobs();
}

/**
 * Merged metrics of a tiny campaign run under @p jobs threads. Each
 * job body also builds a syscall-string Levenshtein DistanceMatrix
 * over its requests at the same thread count, so the matrix pool
 * runs nested inside the runner's pool.
 */
MergedMetrics
campaignMetrics(int jobs)
{
    Session session;
    exp::RunnerOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    std::vector<exp::Job> campaign = tinyJobs();
    for (exp::Job &job : campaign) {
        job.body = [jobs](const exp::ScenarioConfig &cfg) {
            exp::ScenarioResult res = exp::runScenario(cfg);
            const auto &recs = res.records;
            core::DistanceMatrix::build(
                recs.size(),
                [&](std::size_t i, std::size_t j) {
                    return core::levenshteinDistance(recs[i].syscalls,
                                                     recs[j].syscalls);
                },
                jobs);
            return res;
        };
    }
    exp::ParallelRunner(opts).run(campaign);
    return session.mergedMetrics();
}

// ------------------------------------------------------ bucket math

TEST(HistBucket, ExactBoundariesAreExclusiveAbove)
{
    const HistSpec spec{"t", "u", 1000.0, 2.0, 4};
    // Underflow below base.
    EXPECT_EQ(histBucket(spec, 0.0), 0);
    EXPECT_EQ(histBucket(spec, 999.999), 0);
    // Bucket i covers [base * f^(i-1), base * f^i).
    EXPECT_EQ(histBucket(spec, 1000.0), 1);
    EXPECT_EQ(histBucket(spec, 1999.999), 1);
    EXPECT_EQ(histBucket(spec, 2000.0), 2);
    EXPECT_EQ(histBucket(spec, 4000.0), 3);
    EXPECT_EQ(histBucket(spec, 8000.0), 4);
    EXPECT_EQ(histBucket(spec, 15999.0), 4);
    // Top finite boundary goes to overflow.
    EXPECT_EQ(histBucket(spec, 16000.0), 5);
    EXPECT_EQ(histBucket(spec, 1e30), 5);
}

TEST(HistBucket, PathologicalValues)
{
    const HistSpec spec{"t", "u", 1.0, 10.0, 3};
    EXPECT_EQ(histBucket(spec, std::nan("")), 0);
    EXPECT_EQ(histBucket(spec, -std::numeric_limits<double>::infinity()),
              0);
    EXPECT_EQ(histBucket(spec, std::numeric_limits<double>::infinity()),
              4);
    EXPECT_EQ(histBucket(spec, -5.0), 0);
}

TEST(HistBucket, LowBoundsMatchBucketAssignment)
{
    for (std::size_t h = 0; h < NumHists; ++h) {
        const HistSpec &spec = histSpec(static_cast<Hist>(h));
        EXPECT_EQ(histBucketLow(spec, 0),
                  -std::numeric_limits<double>::infinity());
        EXPECT_DOUBLE_EQ(histBucketLow(spec, 1), spec.base);
        for (int b = 1; b <= spec.buckets + 1; ++b) {
            // A bucket's inclusive lower bound must land in it.
            EXPECT_EQ(histBucket(spec, histBucketLow(spec, b)), b)
                << spec.name << " bucket " << b;
        }
    }
}

TEST(HistBucket, EverySpecIsSane)
{
    for (std::size_t h = 0; h < NumHists; ++h) {
        const HistSpec &spec = histSpec(static_cast<Hist>(h));
        EXPECT_NE(spec.name, nullptr);
        EXPECT_GT(spec.base, 0.0);
        EXPECT_GT(spec.factor, 1.0);
        EXPECT_GT(spec.buckets, 0);
    }
}

TEST(Catalogue, EveryKeyHasAName)
{
    for (std::size_t c = 0; c < NumCounters; ++c)
        EXPECT_STRNE(counterName(static_cast<Counter>(c)), "?");
    for (std::size_t p = 0; p < NumProfs; ++p)
        EXPECT_STRNE(profName(static_cast<Prof>(p)), "?");
}

// -------------------------------------------------------- recording

TEST(ObsSession, CountersAndHistogramsRecord)
{
    Session session;
    if (!attached())
        GTEST_SKIP() << "obs compiled out (RBV_OBS=0)";

    RBV_COUNT(SimEventsFired, 3);
    RBV_COUNT(SimEventsFired, 2);
    RBV_HIST(SamplingPeriodCycles, 1500.0); // bucket 1 of that spec
    RBV_HIST(SamplingPeriodCycles, 1.0);    // underflow

    const MergedMetrics m = session.mergedMetrics();
    EXPECT_EQ(
        m.counters[static_cast<std::size_t>(Counter::SimEventsFired)],
        5u);
    const auto &hist =
        m.hist[static_cast<std::size_t>(Hist::SamplingPeriodCycles)];
    EXPECT_EQ(hist[0], 1u);
    EXPECT_EQ(hist[1], 1u);
}

TEST(ObsSession, DormantWithoutSession)
{
    EXPECT_FALSE(attached());
    // Recording without a session must be a safe no-op.
    RBV_COUNT(SimEventsFired, 1);
    RBV_HIST(SamplingPeriodCycles, 1.0);
    simInstant("t", "orphan", 0, 0.0);
    { RBV_PROF_SCOPE(DtwDistance); }
    EXPECT_FALSE(attached());
}

TEST(ObsSession, SecondSessionIsInert)
{
    Session first;
    Session second;
    if (!attached())
        GTEST_SKIP() << "obs compiled out (RBV_OBS=0)";
    EXPECT_TRUE(first.active());
    EXPECT_FALSE(second.active());
    EXPECT_EQ(second.attachThread(), nullptr);
}

TEST(ObsSession, ProfScopesAccumulate)
{
    Session session;
    if (!attached())
        GTEST_SKIP() << "obs compiled out (RBV_OBS=0)";
    for (int i = 0; i < 10; ++i) {
        RBV_PROF_SCOPE(KMedoids);
    }
    const auto rows = session.mergedProfile();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].key, Prof::KMedoids);
    EXPECT_EQ(rows[0].count, 10u);
}

TEST(ObsSession, RingDropsOldestBeyondCapacity)
{
    SessionConfig cfg;
    cfg.traceCapacityPerThread = 8;
    Session session(cfg);
    if (!attached())
        GTEST_SKIP() << "obs compiled out (RBV_OBS=0)";
    for (int i = 0; i < 20; ++i)
        simInstant("t", "e", 0, static_cast<double>(i));
    EXPECT_EQ(session.droppedEvents(), 12u);

    // The export keeps the newest events (ts 12..19).
    std::ostringstream os;
    session.writeChromeTrace(os);
    const JsonValue doc = JsonParser(os.str()).parse();
    double min_ts = 1e300;
    std::size_t instants = 0;
    for (const auto &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").str != "i")
            continue;
        ++instants;
        min_ts = std::min(min_ts, ev.at("ts").num);
    }
    EXPECT_EQ(instants, 8u);
    EXPECT_DOUBLE_EQ(min_ts, 12.0);
}

// ----------------------------------------------------- trace schema

TEST(TraceExport, EmptySessionIsValidJson)
{
    Session session;
    std::ostringstream os;
    session.writeChromeTrace(os);
    const JsonValue doc = JsonParser(os.str()).parse();
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    ASSERT_TRUE(doc.has("traceEvents"));
    EXPECT_EQ(doc.at("traceEvents").kind, JsonValue::Kind::Array);
}

TEST(TraceExport, EventsMatchTraceEventSchema)
{
    Session session;
    if (attached()) {
        simInstant("os.syscall", "read", 2, 10.5, "req", 7.0);
        simSpanBegin("os.request", "request", 42, 11.0);
        simSpanEnd("os.request", "request", 42, 99.0);
        hostSlice("exp.job", "app=web/rep=0", 1234.5);
        hostInstant("engine", "note");
        // A name needing JSON escaping must not corrupt the document.
        hostSlice("exp.job", "k=\"v\"\\w", 1.0);
    }

    std::ostringstream os;
    session.writeChromeTrace(os);
    const JsonValue doc = JsonParser(os.str()).parse();
    const auto &events = doc.at("traceEvents").array;
    if (!attached()) {
        EXPECT_TRUE(events.empty());
        return;
    }

    std::size_t data_events = 0;
    bool saw_escaped = false;
    for (const auto &ev : events) {
        checkTraceEvent(ev);
        if (ev.at("ph").str != "M")
            ++data_events;
        if (ev.at("name").str == "k=\"v\"\\w")
            saw_escaped = true;
    }
    EXPECT_EQ(data_events, 6u);
    EXPECT_TRUE(saw_escaped);

    // Sim events land on sim pid 1, host events on engine pid 0.
    for (const auto &ev : events) {
        if (ev.at("ph").str == "M")
            continue;
        const bool host = ev.at("cat").str == "exp.job" ||
                          ev.at("cat").str == "engine";
        EXPECT_EQ(static_cast<int>(ev.at("pid").num), host ? 0 : 1);
    }
}

TEST(TraceExport, CampaignTraceValidatesAndNamesJobProcesses)
{
    Session session;
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    exp::ParallelRunner(opts).run(tinyJobs());

    std::ostringstream os;
    session.writeChromeTrace(os);
    const JsonValue doc = JsonParser(os.str()).parse();
    const auto &events = doc.at("traceEvents").array;
    if (!attached()) {
        EXPECT_TRUE(events.empty());
        return;
    }

    std::size_t named_jobs = 0;
    for (const auto &ev : events) {
        checkTraceEvent(ev);
        if (ev.at("ph").str == "M" &&
            ev.at("name").str == "process_name" &&
            ev.at("args").at("name").str.rfind("rep=", 0) == 0)
            ++named_jobs;
    }
    // Every job that recorded events has a named trace process.
    EXPECT_GE(named_jobs, 1u);
    EXPECT_GT(events.size(), 100u);
}

// ------------------------------------------- parallel merge == serial

TEST(ShardMerge, ParallelCampaignEqualsSerialTotals)
{
    const MergedMetrics serial = campaignMetrics(1);
    const MergedMetrics parallel = campaignMetrics(4);

    // Counters are sums of per-job deterministic work, so the merge
    // must be exactly thread-count independent.
    for (std::size_t c = 0; c < NumCounters; ++c) {
        EXPECT_EQ(serial.counters[c], parallel.counters[c])
            << counterName(static_cast<Counter>(c));
    }

    // Simulated-time histograms merge exactly. ExpJobMs buckets are
    // host-timing dependent; only its total count is deterministic.
    for (const Hist h : {Hist::SamplingPeriodCycles,
                         Hist::OsRequestLatencyUs}) {
        const auto &s = serial.hist[static_cast<std::size_t>(h)];
        const auto &p = parallel.hist[static_cast<std::size_t>(h)];
        ASSERT_EQ(s.size(), p.size());
        for (std::size_t b = 0; b < s.size(); ++b)
            EXPECT_EQ(s[b], p[b]) << histSpec(h).name << " bucket "
                                  << b;
    }
    std::uint64_t serial_jobs = 0, parallel_jobs = 0;
    for (const std::uint64_t n :
         serial.hist[static_cast<std::size_t>(Hist::ExpJobMs)])
        serial_jobs += n;
    for (const std::uint64_t n :
         parallel.hist[static_cast<std::size_t>(Hist::ExpJobMs)])
        parallel_jobs += n;
    EXPECT_EQ(serial_jobs, parallel_jobs);

#if RBV_OBS
    // With obs compiled in, the campaign must actually have recorded
    // simulator work (compiled out, all-zero == all-zero above).
    EXPECT_GT(serial.counters[static_cast<std::size_t>(
                  Counter::SimEventsFired)],
              0u);
    EXPECT_EQ(serial.counters[static_cast<std::size_t>(
                  Counter::ExpJobsCompleted)],
              4u);
    // The nested matrix builds ran, and their worker threads counted
    // (equality at 1 and 4 jobs is checked above for every counter).
    EXPECT_GT(serial.counters[static_cast<std::size_t>(
                  Counter::ModelLevBitParallel)],
              0u);
#endif
}

// -------------------------------------------------- metrics writer

TEST(MetricsExport, FlatTextListsEveryCounterAndHistogram)
{
    Session session;
    if (attached()) {
        RBV_COUNT(OsSyscalls, 7);
        RBV_HIST(OsRequestLatencyUs, 25.0);
    }
    std::ostringstream os;
    session.writeMetrics(os);
    const std::string text = os.str();

    EXPECT_EQ(text.rfind("# rbv metrics v1", 0), 0u);
    for (std::size_t c = 0; c < NumCounters; ++c) {
        EXPECT_NE(text.find(std::string("counter ") +
                            counterName(static_cast<Counter>(c))),
                  std::string::npos);
    }
    for (std::size_t h = 0; h < NumHists; ++h) {
        EXPECT_NE(text.find(std::string("hist ") +
                            histSpec(static_cast<Hist>(h)).name),
                  std::string::npos);
    }
#if RBV_OBS
    EXPECT_NE(text.find("counter os.syscalls 7"), std::string::npos);
#else
    EXPECT_NE(text.find("counter os.syscalls 0"), std::string::npos);
#endif
}

} // namespace
