/**
 * @file
 * Discrete event queue implementation.
 */

#include "sim/event_queue.hh"

#include <utility>

#include "core/check.hh"
#include "obs/obs.hh"

namespace rbv::sim {

EventQueue::EventQueue(std::uint32_t max_slots,
                       std::uint64_t max_generation)
    : maxSlots(max_slots), maxGeneration(max_generation)
{
    RBV_CHECK(max_slots > 0 && max_slots <= MaxSlots,
              "event slot limit " << max_slots << " outside [1, "
                                  << MaxSlots << "]");
    RBV_CHECK(max_generation > 0 && max_generation <= MaxGeneration,
              "event generation limit " << max_generation
                                        << " outside [1, "
                                        << MaxGeneration << "]");
}

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    RBV_CHECK(when >= curTick,
              "event scheduled into the past: when=" << when
                  << " now=" << curTick);
    std::uint32_t idx;
    if (!freeSlots.empty()) {
        idx = freeSlots.back();
        freeSlots.pop_back();
        checkGeneration(idx);
    } else {
        RBV_CHECK(slots.size() < maxSlots,
                  "event slot table full: " << slots.size()
                                            << " pending events");
        idx = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    }
    Slot &s = slots[idx];
    s.cb = std::move(cb);
    heap.push_back(HeapEntry{when, nextSeq++, idx});
    siftUp(heap.size() - 1);
    RBV_COUNT(SimEventsScheduled, 1);
    return (s.gen << SlotBits) | idx;
}

EventId
EventQueue::rearm(EventId id, Tick when)
{
    const std::uint32_t idx = pendingSlot(id);
    if (idx == NotInHeap)
        return InvalidEventId;
    RBV_CHECK(when >= curTick,
              "event scheduled into the past: when=" << when
                  << " now=" << curTick);
    // cancel() + schedule() would free this slot and take it straight
    // back (the free list is LIFO): a new generation, the same slot.
    Slot &s = slots[idx];
    ++s.gen;
    checkGeneration(idx);
    HeapEntry &e = heap[s.heapPos];
    e.when = when;
    e.seq = nextSeq++;
    resift(s.heapPos);
    RBV_COUNT(SimEventsCancelled, 1);
    RBV_COUNT(SimEventsScheduled, 1);
    return (s.gen << SlotBits) | idx;
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t idx = pendingSlot(id);
    if (idx == NotInHeap)
        return false;
    removeAt(slots[idx].heapPos);
    slots[idx].cb = nullptr;
    release(idx);
    RBV_COUNT(SimEventsCancelled, 1);
    return true;
}

std::uint32_t
EventQueue::pendingSlot(EventId id) const
{
    const auto idx = static_cast<std::uint32_t>(id & MaxSlots);
    if (idx >= slots.size())
        return NotInHeap;
    const Slot &s = slots[idx];
    if (s.heapPos == NotInHeap || s.gen != id >> SlotBits)
        return NotInHeap; // fired, cancelled, or never issued
    RBV_DCHECK(heap[s.heapPos].slot == idx,
               "heap position of slot " << idx << " is stale");
    return idx;
}

void
EventQueue::checkGeneration(std::uint32_t slot) const
{
    // A wrapped generation would let a stale handle cancel this
    // slot's new event.
    RBV_CHECK(slots[slot].gen <= maxGeneration,
              "event slot " << slot << " exhausted its "
                            << maxGeneration << " generations");
}

bool
EventQueue::runOne()
{
    if (heap.empty())
        return false;
    const HeapEntry top = heap.front();
    Slot &s = slots[top.slot];
    RBV_DCHECK(s.heapPos == 0, "heap top slot " << top.slot
                                   << " has position " << s.heapPos);
    RBV_CHECK(top.when >= curTick,
              "event time regressed: firing at " << top.when
                  << " with now=" << curTick);
    removeAt(0);
    curTick = top.when;
    // Move the callback out before releasing the slot: the callback
    // may schedule, and so reuse this slot or grow the table.
    Callback cb = std::move(s.cb);
    release(top.slot);
    ++fired;
    RBV_COUNT(SimEventsFired, 1);
    cb();
    return true;
}

void
EventQueue::runUntil(Tick limit)
{
    RBV_CHECK(limit >= curTick,
              "runUntil limit " << limit << " is before now="
                                << curTick);
    RBV_PROF_SCOPE(EventQueuePump);
    stopRequested = false;
    while (!stopRequested && !heap.empty()) {
        if (heap.front().when > limit) {
            curTick = limit;
            break;
        }
        runOne();
    }
}

void
EventQueue::siftUp(std::size_t pos)
{
    const HeapEntry e = heap[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!before(e, heap[parent]))
            break;
        place(pos, heap[parent]);
        pos = parent;
    }
    place(pos, e);
}

void
EventQueue::siftDown(std::size_t pos)
{
    const HeapEntry e = heap[pos];
    const std::size_t n = heap.size();
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap[child + 1], heap[child]))
            ++child;
        if (!before(heap[child], e))
            break;
        place(pos, heap[child]);
        pos = child;
    }
    place(pos, e);
}

void
EventQueue::resift(std::size_t pos)
{
    if (pos > 0 && before(heap[pos], heap[(pos - 1) / 2]))
        siftUp(pos);
    else
        siftDown(pos);
}

void
EventQueue::removeAt(std::size_t pos)
{
    slots[heap[pos].slot].heapPos = NotInHeap;
    const HeapEntry last = heap.back();
    heap.pop_back();
    if (pos == heap.size())
        return;
    heap[pos] = last;
    resift(pos);
}

void
EventQueue::release(std::uint32_t slot)
{
    ++slots[slot].gen;
    freeSlots.push_back(slot);
}

} // namespace rbv::sim
