/**
 * @file
 * Unit tests for the discrete event queue, plus a differential test
 * against a reference model: the original priority-queue + map queue
 * with lazy cancellation, kept here as the oracle for the slot-table
 * queue's firing order and bookkeeping. The oracle has no in-place
 * re-arm: it applies rearm() as the cancel + schedule it stands for.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "sim/event_queue.hh"
#include "stats/rng.hh"

using namespace rbv::sim;

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(10, [&order, i] { order.push_back(i); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue eq;
    bool fired = false;
    const EventId id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.runUntil(100);
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsFalse)
{
    EventQueue eq;
    const EventId id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(50, [&] { ++count; });
    eq.runUntil(20);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 20u);
    eq.runUntil(100);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, ScheduleFromWithinEvent)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(10, [&] {
        fired.push_back(eq.now());
        eq.scheduleIn(5, [&] { fired.push_back(eq.now()); });
    });
    eq.runUntil(100);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 10u);
    EXPECT_EQ(fired[1], 15u);
}

TEST(EventQueue, ScheduleAtCurrentTickFiresThisRun)
{
    EventQueue eq;
    bool inner = false;
    eq.schedule(10, [&] {
        eq.schedule(eq.now(), [&] { inner = true; });
    });
    eq.runUntil(100);
    EXPECT_TRUE(inner);
}

TEST(EventQueue, RequestStopHaltsProcessing)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] {
        ++count;
        eq.requestStop();
    });
    eq.schedule(20, [&] { ++count; });
    eq.runUntil(100);
    EXPECT_EQ(count, 1);
    // A later runUntil resumes.
    eq.runUntil(100);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
    eq.schedule(5, [] {});
    EXPECT_TRUE(eq.runOne());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, SizeAndEmptyTrackPending)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    const EventId a = eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.size(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.size(), 1u);
    eq.runUntil(10);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, FiredCountExcludesCancelled)
{
    EventQueue eq;
    const EventId a = eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    eq.cancel(a);
    eq.runUntil(10);
    EXPECT_EQ(eq.firedCount(), 1u);
}

TEST(EventQueue, ManyEventsStressOrder)
{
    EventQueue eq;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        const Tick when = (i * 7919) % 1000;
        eq.schedule(when, [&, when] {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    eq.runUntil(2000);
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.firedCount(), 1000u);
}

TEST(EventQueue, StaleHandleMissesReusedSlot)
{
    EventQueue eq;
    const EventId first = eq.schedule(1, [] {});
    ASSERT_TRUE(eq.runOne());
    bool fired = false;
    const EventId second = eq.schedule(2, [&] { fired = true; });
    // The freed slot is reused, under a new generation.
    constexpr EventId SlotMask = (EventId{1} << EventQueue::SlotBits) - 1;
    EXPECT_EQ(first & SlotMask, second & SlotMask);
    EXPECT_NE(first, second);
    EXPECT_FALSE(eq.cancel(first));
    EXPECT_EQ(eq.size(), 1u);
    eq.runUntil(10);
    EXPECT_TRUE(fired);

    // The same holds for a slot freed by cancel().
    const EventId third = eq.schedule(20, [] {});
    ASSERT_TRUE(eq.cancel(third));
    const EventId fourth = eq.schedule(20, [] {});
    EXPECT_EQ(third & SlotMask, fourth & SlotMask);
    EXPECT_FALSE(eq.cancel(third));
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_TRUE(eq.cancel(fourth));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, HandlesCarryWideGenerations)
{
    // A generation above 2^16 shifted by SlotBits needs more than
    // the generation field's 40 bits; the handle must keep them all,
    // and only the current handle may cancel.
    EventQueue eq;
    EventId prev = eq.schedule(1, [] {});
    constexpr int Reuses = 70000;
    for (int i = 0; i < Reuses; ++i) {
        ASSERT_TRUE(eq.cancel(prev));
        const EventId next = eq.schedule(1, [] {});
        ASSERT_FALSE(eq.cancel(prev));
        prev = next;
    }
    EXPECT_EQ(prev >> EventQueue::SlotBits, EventId{Reuses + 1});
    EXPECT_TRUE(eq.cancel(prev));
}

TEST(EventQueue, CancelForeignHandlesIsFalse)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    EXPECT_FALSE(eq.cancel(InvalidEventId));
    EXPECT_FALSE(eq.cancel(EventQueue::MaxSlots - 1)); // no such slot
    EXPECT_EQ(eq.size(), 1u);
}

// ----------------------------------------------------------- rearm

TEST(EventQueueRearm, HandlesThatAreNotPendingChangeNothing)
{
    EventQueue eq;
    bool fired = false;
    const EventId cancelled = eq.schedule(10, [] {});
    ASSERT_TRUE(eq.cancel(cancelled));
    const EventId done = eq.schedule(10, [] {});
    ASSERT_TRUE(eq.runOne());
    const EventId live = eq.schedule(20, [&] { fired = true; });
    EventQueue other;
    for (int i = 0; i < 3; ++i)
        other.schedule(5, [] {});
    const EventId foreign = other.schedule(5, [] {}); // slot 3

    // Cancelled, fired, invalid, out-of-table and foreign handles:
    // the live event must neither move nor lose its handle.
    EXPECT_EQ(eq.rearm(cancelled, 30), InvalidEventId);
    EXPECT_EQ(eq.rearm(done, 30), InvalidEventId);
    EXPECT_EQ(eq.rearm(InvalidEventId, 30), InvalidEventId);
    EXPECT_EQ(eq.rearm(EventQueue::MaxSlots - 1, 30), InvalidEventId);
    EXPECT_EQ(eq.rearm(foreign, 30), InvalidEventId);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.firedCount(), 1u);
    eq.runUntil(25);
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.rearm(live, 30), InvalidEventId); // fired too
}

TEST(EventQueueRearm, EarlierEqualAndLaterTicks)
{
    EventQueue eq;
    std::vector<char> order;
    const EventId a = eq.schedule(10, [&] { order.push_back('a'); });
    const EventId b = eq.schedule(20, [&] { order.push_back('b'); });
    eq.schedule(20, [&] { order.push_back('c'); });
    const EventId d = eq.schedule(30, [&] { order.push_back('d'); });

    // Equal tick: b takes a new sequence number, so it fires after c.
    const EventId b2 = eq.rearm(b, 20);
    ASSERT_NE(b2, InvalidEventId);
    EXPECT_NE(b2, b);
    // Earlier: d jumps ahead of everything.
    ASSERT_NE(eq.rearm(d, 5), InvalidEventId);
    // Later: a moves behind b.
    const EventId a2 = eq.rearm(a, 25);
    ASSERT_NE(a2, InvalidEventId);
    EXPECT_EQ(eq.size(), 4u);

    // The old handles died; the new ones still work.
    EXPECT_FALSE(eq.cancel(a));
    EXPECT_EQ(eq.rearm(b, 1), InvalidEventId);
    EXPECT_EQ(eq.size(), 4u);
    const EventId a3 = eq.rearm(a2, 26);
    ASSERT_NE(a3, InvalidEventId);
    EXPECT_FALSE(eq.cancel(a2));

    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<char>{'d', 'c', 'b', 'a'}));
    EXPECT_EQ(eq.firedCount(), 4u);
    EXPECT_EQ(eq.now(), 26u);
    EXPECT_FALSE(eq.cancel(a3));
}

TEST(EventQueueRearm, FromInsideACallback)
{
    EventQueue eq;
    std::vector<std::string> log;
    EventId self = InvalidEventId;
    EventId other = eq.schedule(50, [&] {
        log.push_back("other@" + std::to_string(eq.now()));
    });
    eq.schedule(10, [&] { log.push_back("peer@10"); });
    self = eq.schedule(10, [&] {
        log.push_back("self@" + std::to_string(eq.now()));
        // The firing event is no longer pending.
        EXPECT_EQ(eq.rearm(self, 12), InvalidEventId);
        // Pull the other event to now: it fires in this same run,
        // after the events already queued for this tick.
        other = eq.rearm(other, eq.now());
        EXPECT_NE(other, InvalidEventId);
    });
    eq.schedule(10, [&] { log.push_back("late@10"); });
    eq.runUntil(100);
    EXPECT_EQ(log, (std::vector<std::string>{"peer@10", "self@10",
                                             "late@10", "other@10"}));
    EXPECT_EQ(eq.firedCount(), 4u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueRearm, CountsAsOneCancelAndOneSchedule)
{
    using rbv::obs::Counter;
    // The same script twice: re-arming in place, and by cancel +
    // schedule. Every events counter must agree.
    std::array<std::uint64_t, 3> got[2];
    for (int in_place = 0; in_place < 2; ++in_place) {
        rbv::obs::Session session;
        if (!rbv::obs::attached())
            GTEST_SKIP() << "obs compiled out (RBV_OBS=0)";
        EventQueue eq;
        std::vector<EventId> ids;
        for (Tick t = 1; t <= 8; ++t)
            ids.push_back(eq.schedule(t * 10, [] {}));
        for (int round = 0; round < 6; ++round) {
            for (std::size_t k = 0; k < ids.size(); ++k) {
                const Tick when = eq.now() + 3 + k;
                if (in_place)
                    ids[k] = eq.rearm(ids[k], when);
                else if (eq.cancel(ids[k]))
                    ids[k] = eq.schedule(when, [] {});
                else
                    ids[k] = InvalidEventId;
            }
            eq.runOne();
        }
        eq.runUntil(1000);
        const auto m = session.mergedMetrics();
        const auto count = [&m](Counter c) {
            return m.counters[static_cast<std::size_t>(c)];
        };
        got[in_place] = {count(Counter::SimEventsScheduled),
                         count(Counter::SimEventsCancelled),
                         count(Counter::SimEventsFired)};
    }
    EXPECT_EQ(got[0], got[1]);
    EXPECT_GT(got[1][1], 0u);
    EXPECT_EQ(got[1][0], got[1][1] + got[1][2]);
}

// ------------------------------------------- differential vs oracle

namespace {

/**
 * Reference model: the queue as first written, a binary heap of
 * (tick, seq) keys with lazily cancelled entries plus an ordered map
 * of pending callbacks. Kept verbatim in behaviour as the oracle.
 */
class RefEventQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return curTick; }

    EventId
    schedule(Tick when, Callback cb)
    {
        const EventId id = nextId++;
        heap.push(Entry{when, nextSeq++, id});
        pending.emplace(id, std::move(cb));
        return id;
    }

    bool cancel(EventId id) { return pending.erase(id) > 0; }

    /** cancel(id), then schedule(when) of the callback it removed. */
    EventId
    rearm(EventId id, Tick when)
    {
        auto it = pending.find(id);
        if (it == pending.end())
            return InvalidEventId;
        Callback cb = std::move(it->second);
        pending.erase(it);
        return schedule(when, std::move(cb));
    }

    bool empty() const { return pending.empty(); }
    std::size_t size() const { return pending.size(); }

    bool
    runOne()
    {
        while (!heap.empty()) {
            const Entry top = heap.top();
            heap.pop();
            auto it = pending.find(top.id);
            if (it == pending.end())
                continue;
            Callback cb = std::move(it->second);
            pending.erase(it);
            curTick = top.when;
            ++fired;
            cb();
            return true;
        }
        return false;
    }

    void
    runUntil(Tick limit)
    {
        stopRequested = false;
        while (!stopRequested) {
            while (!heap.empty() && !pending.count(heap.top().id))
                heap.pop();
            if (heap.empty())
                break;
            if (heap.top().when > limit) {
                curTick = limit;
                break;
            }
            runOne();
        }
    }

    void requestStop() { stopRequested = true; }
    std::uint64_t firedCount() const { return fired; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventId id;

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::map<EventId, Callback> pending;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    EventId nextId = 1;
    std::uint64_t fired = 0;
    bool stopRequested = false;
};

/**
 * Runs one queue through a seeded random script and logs every
 * observable: each fire (label, now, size, empty, fired count), each
 * cancel() and rearm() result, and the queue state after each
 * top-level step. Handles are logged by the order they were handed
 * out, since the two queues encode them differently; a re-armed
 * event keeps the label of its callback. Callbacks re-arm "core"
 * events, mostly at the same tick, as Machine::scheduleBoundaries()
 * does on every state change: in place, or by cancel + schedule.
 */
template <class Queue>
class ScriptRun
{
  public:
    explicit ScriptRun(std::uint64_t seed) : rng(seed) {}

    std::vector<std::string>
    run(int steps)
    {
        for (int step = 0; step < steps; ++step) {
            const auto op = rng.uniformInt(12);
            if (op < 4)
                scheduleOne();
            else if (op < 6)
                cancelAny();
            else if (op < 8)
                rearmAny();
            else if (op < 11)
                q.runUntil(q.now() + rng.uniformInt(40));
            else
                note("runOne " + std::to_string(q.runOne()));
            noteState("step");
        }
        budget = 0; // no more scheduling from callbacks
        q.runUntil(q.now() + 1000000);
        noteState("drained");
        return log;
    }

  private:
    static constexpr int Cores = 4;

    Tick
    pickDelay()
    {
        // Mostly ties: many events share a tick.
        static constexpr Tick Delays[] = {0, 0, 0, 1, 1, 2, 5, 30};
        return Delays[rng.uniformInt(std::size(Delays))];
    }

    EventId
    scheduleAt(Tick when)
    {
        const int label = static_cast<int>(handles.size());
        const EventId id = q.schedule(when, [this, label] { fire(label); });
        handles.push_back(id);
        note("schedule " + std::to_string(label) + " @" +
             std::to_string(when));
        return id;
    }

    void scheduleOne() { scheduleAt(q.now() + pickDelay()); }

    void
    cancelAny()
    {
        const auto pick = rng.uniformInt(handles.size() + 1);
        // One pick in (n+1) is the invalid handle; the rest hit every
        // handle ever issued, most of them stale.
        const EventId id =
            pick == handles.size() ? InvalidEventId : handles[pick];
        note("cancel " + std::to_string(pick) + " " +
             std::to_string(q.cancel(id)));
    }

    /** Log a rearm() result; a valid handle joins the pool. */
    EventId
    noteRearm(const std::string &what, EventId id)
    {
        std::string line =
            what + " " + std::to_string(id != InvalidEventId);
        if (id != InvalidEventId) {
            line += " -> " + std::to_string(handles.size());
            handles.push_back(id);
        }
        note(line);
        return id;
    }

    void
    rearmAny()
    {
        const auto pick = rng.uniformInt(handles.size() + 1);
        const EventId id =
            pick == handles.size() ? InvalidEventId : handles[pick];
        noteRearm("rearm " + std::to_string(pick),
                  q.rearm(id, q.now() + pickDelay()));
    }

    void
    fire(int label)
    {
        std::ostringstream os;
        os << "fire " << label << " @" << q.now() << " size=" << q.size()
           << " empty=" << q.empty() << " fired=" << q.firedCount();
        note(os.str());
        if (budget <= 0)
            return;
        --budget;
        const auto action = rng.uniformInt(8);
        if (action < 4) {
            // Re-arm every core event, mostly at the very tick it was
            // armed for: in place while it is pending (else by a new
            // schedule), or by cancel + schedule.
            const bool in_place = action < 2;
            for (int c = 0; c < Cores; ++c) {
                if (rng.uniformInt(4) != 0)
                    coreWhen[c] = std::max(coreWhen[c], q.now());
                else
                    coreWhen[c] = q.now() + pickDelay();
                if (in_place) {
                    const EventId moved =
                        noteRearm("rearm-core " + std::to_string(c),
                                  q.rearm(coreEv[c], coreWhen[c]));
                    if (moved != InvalidEventId) {
                        coreEv[c] = moved;
                        continue;
                    }
                } else if (coreEv[c] != InvalidEventId) {
                    note("cancel-core " + std::to_string(c) + " " +
                         std::to_string(q.cancel(coreEv[c])));
                }
                coreEv[c] = scheduleAt(coreWhen[c]);
            }
        } else if (action < 6) {
            scheduleOne();
            cancelAny();
        } else if (action < 7) {
            scheduleOne();
            scheduleOne();
        } else {
            q.requestStop();
            note("stop");
        }
    }

    void
    noteState(const char *what)
    {
        std::ostringstream os;
        os << what << " now=" << q.now() << " size=" << q.size()
           << " empty=" << q.empty() << " fired=" << q.firedCount();
        note(os.str());
    }

    void note(std::string line) { log.push_back(std::move(line)); }

    Queue q;
    rbv::stats::Rng rng;
    std::vector<EventId> handles;
    EventId coreEv[Cores] = {};
    Tick coreWhen[Cores] = {};
    int budget = 3000;
    std::vector<std::string> log;
};

} // namespace

TEST(EventQueueDifferential, MatchesReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const auto want = ScriptRun<RefEventQueue>(seed).run(1500);
        const auto got = ScriptRun<EventQueue>(seed).run(1500);
        const std::size_t n = std::min(want.size(), got.size());
        std::size_t first_diff = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (want[i] != got[i]) {
                first_diff = i;
                break;
            }
        }
        ASSERT_EQ(first_diff, n)
            << "seed " << seed << ": oracle '" << want[first_diff]
            << "' vs queue '" << got[first_diff] << "'";
        ASSERT_EQ(want.size(), got.size()) << "seed " << seed;
        // The script must actually exercise the queue.
        const auto fires = std::count_if(
            want.begin(), want.end(),
            [](const std::string &l) { return l.rfind("fire ", 0) == 0; });
        EXPECT_GT(fires, 1000) << "seed " << seed;
    }
}
