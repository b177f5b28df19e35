/**
 * @file
 * Discrete event queue.
 *
 * Events live in a flat table of reusable slots. A binary heap of
 * (tick, sequence, slot) entries orders the live events, and each slot
 * records where its entry sits in the heap, so cancel() removes an
 * event from the heap at once: the heap never holds a cancelled
 * entry, and rearm() moves a pending event to a new tick without
 * touching its slot or callback. Events scheduled for the same tick
 * fire in scheduling order, which keeps runs fully deterministic.
 */

#ifndef RBV_SIM_EVENT_QUEUE_HH
#define RBV_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace rbv::sim {

/**
 * Opaque handle identifying a scheduled event; 0 is invalid. A handle
 * names a slot and the slot's generation, so a handle to an event that
 * already fired or was cancelled never matches the slot's next event.
 */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId InvalidEventId = 0;

/**
 * Time-ordered event queue with cancellation.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Low bits of an EventId name the slot, the rest its generation. */
    static constexpr int SlotBits = 24;

    /** Most slots (live events) a queue can hold. */
    static constexpr std::uint32_t MaxSlots =
        (std::uint32_t{1} << SlotBits) - 1;

    /**
     * Most events one slot can carry. One below the largest value
     * the generation field holds, so the count past the last event
     * is still representable and reusing the slot is caught.
     */
    static constexpr std::uint64_t MaxGeneration =
        (std::uint64_t{1} << (64 - SlotBits)) - 2;

    EventQueue() = default;

    /**
     * A queue with lower capacity limits than the handle encoding
     * allows; exceeding either aborts. Tests use this to reach the
     * limits with a handful of events.
     */
    EventQueue(std::uint32_t max_slots, std::uint64_t max_generation);

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Schedule a callback at an absolute tick (>= now).
     * @return A handle usable with cancel().
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule a callback after a relative delay. */
    EventId
    scheduleIn(Tick delay, Callback cb)
    {
        return schedule(curTick + delay, std::move(cb));
    }

    /**
     * Cancel a previously scheduled event. Cancelling an already
     * fired or already cancelled event is a harmless no-op.
     * @return True if the event was pending.
     */
    bool cancel(EventId id);

    /**
     * Move a pending event to tick @p when (>= now), keeping its
     * callback. Observably the same as cancel(id) followed by
     * schedule(when, <id's callback>): the old handle dies, the event
     * takes the next sequence number (so it fires after every event
     * already scheduled for @p when), and it counts as one cancelled
     * and one scheduled event.
     * @return The event's new handle, or InvalidEventId (and nothing
     *         changes) if @p id is not pending.
     */
    EventId rearm(EventId id, Tick when);

    /**
     * rearm(id, when) if @p id is pending, else schedule(when, cb):
     * the same as cancel(id) then schedule(when, cb) whenever @p cb
     * is the callback @p id was scheduled with.
     */
    template <class F>
    EventId
    reschedule(EventId id, Tick when, F &&cb)
    {
        const EventId moved = rearm(id, when);
        return moved != InvalidEventId
                   ? moved
                   : schedule(when, Callback(std::forward<F>(cb)));
    }

    /** True if no pending (non-cancelled) events remain. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap.size(); }

    /**
     * Run the next event, advancing time to it.
     * @return False if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue is empty or simulated time would
     * exceed @p limit. Time is left at the last fired event (or at
     * @p limit if a stop was requested or the limit was reached).
     */
    void runUntil(Tick limit);

    /** Ask runUntil() to stop after the current event. */
    void requestStop() { stopRequested = true; }

    /** Total number of events fired so far (for diagnostics). */
    std::uint64_t firedCount() const { return fired; }

  private:
    /** heapPos of a slot that holds no pending event. */
    static constexpr std::uint32_t NotInHeap = MaxSlots;

    /** One event's callback and its place in the heap. */
    struct Slot
    {
        Callback cb;
        /** Generation of the slot's current (or next) event, >= 1. */
        std::uint64_t gen : 64 - SlotBits = 1;
        std::uint64_t heapPos : SlotBits = NotInHeap;
    };

    /** A live event's (when, seq) key and its slot. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /** Store @p e at heap index @p pos and record it in its slot. */
    void
    place(std::size_t pos, const HeapEntry &e)
    {
        heap[pos] = e;
        slots[e.slot].heapPos = pos;
    }

    void siftUp(std::size_t pos);
    void siftDown(std::size_t pos);

    /** Restore heap order around an entry whose key changed. */
    void resift(std::size_t pos);

    /** Remove the heap entry at @p pos, keeping the heap valid. */
    void removeAt(std::size_t pos);

    /** Slot of @p id if it names a pending event, else NotInHeap. */
    std::uint32_t pendingSlot(EventId id) const;

    /** Abort if @p slot's next event would exceed its generations. */
    void checkGeneration(std::uint32_t slot) const;

    /** Return a slot whose event fired or was cancelled to the pool. */
    void release(std::uint32_t slot);

    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    /** Live events, a binary min-heap by (when, seq). */
    std::vector<HeapEntry> heap;
    std::uint32_t maxSlots = MaxSlots;
    std::uint64_t maxGeneration = MaxGeneration;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t fired = 0;
    bool stopRequested = false;
};

} // namespace rbv::sim

#endif // RBV_SIM_EVENT_QUEUE_HH
