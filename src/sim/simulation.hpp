// Deterministic discrete-event simulation core.
//
// Everything in a failsig deployment — protocol handlers, CPU execution,
// network delivery, timeouts — runs as events on one `Simulation`. Events at
// equal timestamps fire in scheduling order by default, so a run is a pure
// function of (code, seeds): every experiment and test is exactly
// reproducible. The same-timestamp order is a *pluggable policy*: the
// schedule-space explorer (src/explore) installs a seeded tie-break that
// permutes equal-time events deterministically, exploring interleavings a
// real (tie-order-agnostic) network could produce — with the policy left at
// default, behaviour is byte-identical to the historical FIFO rule.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace failsig::sim {

class Simulation {
public:
    /// Opaque handle to one scheduled event, good only for cancel(). Never 0,
    /// so 0 can stand for "no event"; once the event fires or is cancelled the
    /// handle is never valid again (a stale cancel() returns false and leaves
    /// whatever event now occupies the same storage alone). Handles order
    /// like the scheduling sequence, but callers must not read more into
    /// them.
    using EventId = std::uint64_t;
    using EventFn = std::function<void()>;
    /// Maps (scheduling sequence number, firing time) to a tie-break key:
    /// among events with equal timestamps, smaller keys fire first (the
    /// sequence breaks key collisions, so any policy stays a total,
    /// deterministic order). The sequence is the plain 1, 2, 3, ... count of
    /// schedule_at() calls on this simulation, not the EventId. Must be a
    /// pure function — it is evaluated once, at scheduling time.
    using TieBreakFn = std::function<std::uint64_t(std::uint64_t seq, TimePoint at)>;

    Simulation() = default;
    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    [[nodiscard]] TimePoint now() const { return now_; }

    /// Schedules `fn` at absolute time `at` (clamped to now()).
    EventId schedule_at(TimePoint at, EventFn fn);

    /// Schedules `fn` after `delay` from now.
    EventId schedule_after(Duration delay, EventFn fn) {
        return schedule_at(now_ + delay, std::move(fn));
    }

    /// Installs the same-timestamp ordering policy for events scheduled from
    /// now on (already-queued events keep the key they were scheduled with).
    /// Default (unset / nullptr): FIFO — key == sequence number, the
    /// historical scheduling-order rule, byte-identical to builds without
    /// this seam.
    void set_tie_break(TieBreakFn policy) { tie_break_ = std::move(policy); }

    /// Cancels a pending event. Returns false if it already fired, was
    /// already cancelled or is unknown. The handler closure is destroyed
    /// eagerly, and the heap entry is reclaimed (amortized) by compaction —
    /// long campaigns that cancel many timeouts do not accrete dead state
    /// until timestamps pop.
    bool cancel(EventId id);

    /// Runs the next event; returns false when the queue is empty.
    bool step();

    /// Runs until the queue empties or `max_events` fire; returns events fired.
    std::size_t run(std::size_t max_events = SIZE_MAX);

    /// Runs all events with timestamp <= `until`, then advances now() to
    /// `until`. Returns events fired.
    std::size_t run_until(TimePoint until);

    /// Sentinel `next_due()` value: no live event is pending.
    static constexpr TimePoint kNoEvent = INT64_MAX;

    /// Earliest live event's firing time, or kNoEvent if the queue holds no
    /// live events. Prunes cancelled entries off the heap top as a side
    /// effect (owning-thread only, like every other member). This is the
    /// seam a multi-loop host (one Simulation per node, a shared virtual
    /// clock) uses to decide how far time can fast-forward.
    [[nodiscard]] TimePoint next_due();

    [[nodiscard]] bool empty() const { return pending() == 0; }
    [[nodiscard]] std::size_t pending() const { return slots_.size() - free_slots_.size(); }
    [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }
    /// Heap entries currently allocated, live + not-yet-reclaimed cancelled
    /// (diagnostic; compaction bounds this by roughly
    /// max(64 + pending(), 2 * pending()) — below 64 dead entries it does
    /// not bother rebuilding).
    [[nodiscard]] std::size_t queue_footprint() const { return heap_.size(); }
    /// High-watermark of queue_footprint() over the run — the peak heap
    /// allocation a run ever needed (diagnostic; exported as an end-of-run
    /// gauge by the observability layer).
    [[nodiscard]] std::size_t max_queue_footprint() const { return max_footprint_; }
    /// Handler slots allocated (diagnostic). Fired and cancelled events give
    /// their slot back at once, so this never exceeds the most events ever
    /// pending at one time.
    [[nodiscard]] std::size_t slot_footprint() const { return slots_.size(); }

private:
    // An EventId packs the scheduling sequence number above the index of the
    // handler slot. Sequence numbers are unique, so an id names one event
    // for the life of the simulation even though slots are reused, and ids
    // compare like sequence numbers.
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
    static constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << (64 - kSlotBits)) - 1;
    static std::uint64_t slot_of(EventId id) { return id & kSlotMask; }

    struct Event {
        TimePoint at;
        EventId id;
        /// Tie-break key among equal timestamps; == the sequence number under
        /// the default FIFO policy, so the historical ordering is preserved
        /// exactly.
        std::uint64_t tie;
        // Ordering: earliest time first; among equal times, smallest
        // tie-break key; ids (sequence numbers in their high bits) make the
        // order total under any policy.
        bool operator>(const Event& other) const {
            if (at != other.at) return at > other.at;
            if (tie != other.tie) return tie > other.tie;
            return id > other.id;
        }
    };

    /// A pending event's handler. `id` is the owning event's id while it is
    /// pending and 0 while the slot is free.
    struct Slot {
        EventId id{0};
        EventFn fn;
    };

    /// An event is live iff its slot still names it; firing and cancel()
    /// free the slot, and pops/compaction drop the dead heap entry.
    [[nodiscard]] bool is_live(const Event& event) const {
        return slots_[slot_of(event.id)].id == event.id;
    }
    /// Empties `slot` and returns it to the free list.
    void release(std::uint64_t slot);
    void maybe_compact();
    void pop_event();

    TimePoint now_{0};
    std::uint64_t next_seq_{1};
    std::uint64_t events_fired_{0};
    // Min-heap over `Event::operator>` maintained with std::*_heap so
    // compaction can filter dead entries in place (std::priority_queue
    // cannot).
    std::vector<Event> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::size_t cancelled_in_heap_{0};
    std::size_t max_footprint_{0};
    TieBreakFn tie_break_;
};

}  // namespace failsig::sim
