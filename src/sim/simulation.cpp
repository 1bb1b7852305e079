#include "sim/simulation.hpp"

#include <algorithm>

#include "common/result.hpp"

namespace failsig::sim {

Simulation::EventId Simulation::schedule_at(TimePoint at, EventFn fn) {
    const std::uint64_t seq = next_seq_++;
    ensure(seq <= kMaxSeq, "simulation: event sequence numbers exhausted");
    std::uint64_t slot;
    if (free_slots_.empty()) {
        slot = slots_.size();
        ensure(slot <= kSlotMask, "simulation: too many pending events");
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    const EventId id = (seq << kSlotBits) | slot;
    slots_[slot] = Slot{id, std::move(fn)};
    const TimePoint fire_at = std::max(at, now_);
    const std::uint64_t tie = tie_break_ ? tie_break_(seq, fire_at) : seq;
    heap_.push_back(Event{fire_at, id, tie});
    max_footprint_ = std::max(max_footprint_, heap_.size());
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    return id;
}

void Simulation::release(std::uint64_t slot) {
    slots_[slot].id = 0;
    slots_[slot].fn = nullptr;
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
}

bool Simulation::cancel(EventId id) {
    const auto slot = slot_of(id);
    if (id == 0 || slot >= slots_.size() || slots_[slot].id != id) return false;
    release(slot);
    ++cancelled_in_heap_;
    maybe_compact();
    return true;
}

void Simulation::maybe_compact() {
    // Rebuild once dead entries dominate: O(live) and amortized O(1) per
    // cancel, so a campaign cancelling millions of timeouts keeps the heap
    // proportional to the live events, not to cancellation history.
    if (cancelled_in_heap_ < 64 || cancelled_in_heap_ * 2 < heap_.size()) return;
    std::erase_if(heap_, [this](const Event& event) { return !is_live(event); });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    cancelled_in_heap_ = 0;
}

void Simulation::pop_event() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
}

bool Simulation::step() {
    while (!heap_.empty()) {
        const Event ev = heap_.front();
        pop_event();
        if (!is_live(ev)) {
            --cancelled_in_heap_;
            continue;
        }
        // Move the handler out before freeing its slot: it may schedule
        // events, which can reuse the slot or grow the slot table.
        const auto slot = slot_of(ev.id);
        EventFn fn = std::move(slots_[slot].fn);
        release(slot);
        now_ = ev.at;
        ++events_fired_;
        fn();
        return true;
    }
    return false;
}

std::size_t Simulation::run(std::size_t max_events) {
    std::size_t fired = 0;
    while (fired < max_events && step()) ++fired;
    return fired;
}

TimePoint Simulation::next_due() {
    while (!heap_.empty()) {
        if (is_live(heap_.front())) return heap_.front().at;
        pop_event();
        --cancelled_in_heap_;
    }
    return kNoEvent;
}

std::size_t Simulation::run_until(TimePoint until) {
    std::size_t fired = 0;
    while (!heap_.empty()) {
        const Event ev = heap_.front();
        if (!is_live(ev)) {
            pop_event();
            --cancelled_in_heap_;
            continue;
        }
        if (ev.at > until) break;
        step();
        ++fired;
    }
    now_ = std::max(now_, until);
    return fired;
}

}  // namespace failsig::sim
