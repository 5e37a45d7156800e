/**
 * @file
 * A minimal discrete-event simulation kernel in the style of gem5's
 * event queue: events are (tick, priority, insertion-order)-ordered
 * callbacks.
 *
 * Storage: callbacks are InlineCallables held in a slab of reusable
 * slots (a free list recycles them); the binary heap orders only
 * 24-byte (when, priority, seq, slot) keys. In steady state neither
 * schedule() nor run() touches the allocator.
 *
 * Determinism contract: events pop in strictly increasing
 * (when, priority, seq) lexicographic order — same-tick events run
 * in ascending priority, and same-tick same-priority events run in
 * insertion (seq) order, *regardless of heap internals*. The
 * comparator orders all three fields and seq is unique per event,
 * so the heap never has equal elements to permute; run() enforces
 * the contract with an always-on check (it is the foundation the
 * record-replay layer in src/replay verifies runs against). An
 * installed ReplayProbe (common/replay_probe.hh) observes every pop.
 */

#ifndef KILLI_SIM_EVENT_QUEUE_HH
#define KILLI_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/inline_callable.hh"
#include "trace/trace.hh"

namespace killi
{

class EventQueue
{
  public:
    /**
     * Inline capacity fits the largest simulator capture: the L2's
     * MSHR retry, which carries a whole L2Cache::RespCb.
     */
    using Callback = InlineCallable<void(), 80>;

    /** Current simulated time. */
    Tick curTick() const { return now; }

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed; }

    /** True iff no events are pending. */
    bool empty() const { return heap.empty(); }

    /**
     * Schedule @p cb at absolute time @p when (>= curTick()).
     * Lower @p priority runs earlier within a tick. @p cb is any
     * callable that fits a Callback; it is built directly in its slot.
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb, int priority = 0)
    {
        slots[enqueue(when, priority)] = std::forward<F>(cb);
    }

    /** Schedule @p cb @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&cb, int priority = 0)
    {
        schedule(now + delta, std::forward<F>(cb), priority);
    }

    /**
     * Register a callback fired every @p interval ticks while events
     * remain pending (interval 0 uninstalls). The first firing is at
     * curTick() + interval. A firing that coincides with a scheduled
     * event runs *before* that tick's events, so a stats snapshot at
     * tick T observes the state as of the end of tick T-1. Firings
     * stop with the last event: callers wanting the final state take
     * one explicit sample after run() returns.
     */
    void setPeriodic(Tick interval, Callback cb);

    /** Attach a trace sink for sim.* events (nullptr detaches). */
    void setTrace(TraceSink *sink) { trace = sink; }

    /** Run events until the queue drains or @p limit is reached.
     *  Returns true if the queue drained. */
    bool run(Tick limit = kMaxTick);

  private:
    /** Heap entry: the event's order plus the slot holding its
     *  callback. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        int priority;
        std::uint32_t slot;
    };
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    /** The last popped (when, priority, seq), for the pop-order
     *  determinism check in run(). */
    struct PopOrder
    {
        Tick when = 0;
        int priority = 0;
        std::uint64_t seq = 0;
    };

    /** Check @p when, take a free slot and push its key; returns the
     *  slot the caller must fill before the next run() step. */
    std::uint32_t enqueue(Tick when, int priority);

    Tick now = 0;
    std::uint64_t seqCounter = 0;
    std::uint64_t executed = 0;
    PopOrder lastPop;
    /** Binary min-heap (std::push_heap/pop_heap under Later). */
    std::vector<Key> heap;
    /** Callback slab; a slot is empty iff it is on freeSlots. */
    std::vector<Callback> slots;
    std::vector<std::uint32_t> freeSlots;
    Tick periodicInterval = 0;
    Tick nextPeriodic = 0;
    Callback periodicCb;
    TraceSink *trace = nullptr;
};

} // namespace killi

#endif // KILLI_SIM_EVENT_QUEUE_HH
