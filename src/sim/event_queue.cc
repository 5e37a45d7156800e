#include "sim/event_queue.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/replay_probe.hh"

namespace killi
{

std::uint32_t
EventQueue::enqueue(Tick when, int priority)
{
    if (when < now)
        panic("EventQueue: scheduling into the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now));
    KTRACE(trace, now, TraceCat::Sim, "sim.schedule", {"when", when},
           {"priority", priority});
    std::uint32_t slot = static_cast<std::uint32_t>(slots.size());
    if (freeSlots.empty()) {
        slots.emplace_back();
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
    }
    heap.push_back(Key{when, seqCounter++, priority, slot});
    std::push_heap(heap.begin(), heap.end(), Later{});
    return slot;
}

void
EventQueue::setPeriodic(Tick interval, Callback cb)
{
    periodicInterval = interval;
    periodicCb = interval ? std::move(cb) : Callback{};
    nextPeriodic = now + interval;
}

bool
EventQueue::run(Tick limit)
{
    while (!heap.empty()) {
        const Tick nextEvent = heap.front().when;
        if (periodicCb && nextPeriodic <= nextEvent &&
            nextPeriodic <= limit) {
            now = nextPeriodic;
            KTRACE(trace, now, TraceCat::Sim, "sim.periodic",
                   {"interval", periodicInterval});
            periodicCb();
            nextPeriodic += periodicInterval;
            continue;
        }
        if (nextEvent > limit) {
            now = limit;
            return false;
        }
        std::pop_heap(heap.begin(), heap.end(), Later{});
        const Key ev = heap.back();
        heap.pop_back();
        // The determinism contract (see the header): pops are
        // strictly increasing in (when, priority, seq). Checked
        // unconditionally — assert() is dead under the default
        // RelWithDebInfo NDEBUG build, and a violation here would be
        // a silent nondeterminism source that record-replay would
        // then faithfully reproduce instead of exposing. Three
        // integer compares per event, branch never taken.
        if (executed > 0 &&
            (ev.when < lastPop.when ||
             (ev.when == lastPop.when &&
              (ev.priority < lastPop.priority ||
               (ev.priority == lastPop.priority &&
                ev.seq <= lastPop.seq))))) {
            panic("EventQueue: pop order violated: (%llu, %d, %llu) "
                  "after (%llu, %d, %llu)",
                  static_cast<unsigned long long>(ev.when),
                  ev.priority,
                  static_cast<unsigned long long>(ev.seq),
                  static_cast<unsigned long long>(lastPop.when),
                  lastPop.priority,
                  static_cast<unsigned long long>(lastPop.seq));
        }
        lastPop = {ev.when, ev.priority, ev.seq};
        if (ReplayProbe *probe = replayProbe()) [[unlikely]]
            probe->onEventPop(ev.when, ev.priority, ev.seq);
        now = ev.when;
        ++executed;
        // Move the callback out and free its slot before invoking it,
        // so the callback may schedule further events (which may
        // reuse the slot or grow the slab).
        Callback cb = std::move(slots[ev.slot]);
        freeSlots.push_back(ev.slot);
        cb();
    }
    return true;
}

} // namespace killi
