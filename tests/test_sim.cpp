// Unit tests for the discrete-event simulator and the thread-pool CPU model.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/cost_model.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"

namespace failsig::sim {
namespace {

TEST(Simulation, EventsFireInTimeOrder) {
    Simulation sim;
    std::vector<int> order;
    sim.schedule_at(30, [&] { order.push_back(3); });
    sim.schedule_at(10, [&] { order.push_back(1); });
    sim.schedule_at(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, EqualTimesFireInScheduleOrder) {
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(5, [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, PastTimesClampToNow) {
    Simulation sim;
    sim.schedule_at(100, [] {});
    sim.run();
    ASSERT_EQ(sim.now(), 100);
    TimePoint fired_at = -1;
    sim.schedule_at(50, [&] { fired_at = sim.now(); });  // in the past
    sim.run();
    EXPECT_EQ(fired_at, 100);
}

TEST(Simulation, CancelPreventsFiring) {
    Simulation sim;
    bool fired = false;
    const auto id = sim.schedule_at(10, [&] { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulation, RunUntilAdvancesClockWithoutOvershooting) {
    Simulation sim;
    std::vector<TimePoint> fired;
    sim.schedule_at(10, [&] { fired.push_back(sim.now()); });
    sim.schedule_at(20, [&] { fired.push_back(sim.now()); });
    sim.schedule_at(30, [&] { fired.push_back(sim.now()); });
    sim.run_until(20);
    EXPECT_EQ(fired, (std::vector<TimePoint>{10, 20}));
    EXPECT_EQ(sim.now(), 20);
    sim.run();
    EXPECT_EQ(fired.back(), 30);
}

TEST(Simulation, HandlersCanScheduleMoreEvents) {
    Simulation sim;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 5) sim.schedule_after(10, tick);
    };
    sim.schedule_at(0, tick);
    sim.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.now(), 40);
}

TEST(Simulation, RunWithEventLimit) {
    Simulation sim;
    int count = 0;
    for (int i = 0; i < 10; ++i) sim.schedule_at(i, [&] { ++count; });
    EXPECT_EQ(sim.run(3), 3u);
    EXPECT_EQ(count, 3);
    EXPECT_EQ(sim.pending(), 7u);
}

TEST(Simulation, EmptyAndPendingTrackCancellations) {
    Simulation sim;
    EXPECT_TRUE(sim.empty());
    const auto id = sim.schedule_at(5, [] {});
    EXPECT_EQ(sim.pending(), 1u);
    sim.cancel(id);
    EXPECT_TRUE(sim.empty());
}

TEST(Simulation, CancelReleasesTheHandlerEagerly) {
    // The cancelled closure must be destroyed at cancel() time, not when its
    // timestamp pops — long campaigns cancel thousands of timeouts whose
    // deadlines lie far in the future.
    Simulation sim;
    auto alive = std::make_shared<int>(7);
    std::weak_ptr<int> watch = alive;
    const auto id = sim.schedule_at(1'000'000'000, [keep = std::move(alive)] { (void)*keep; });
    EXPECT_FALSE(watch.expired());
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_TRUE(watch.expired()) << "cancel must destroy the handler immediately";
    EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulation, MassCancellationCompactsTheQueue) {
    // A campaign that cancels many far-future timeouts must not accrete dead
    // queue slots until their timestamps pop.
    Simulation sim;
    std::vector<Simulation::EventId> ids;
    for (int i = 0; i < 10'000; ++i) {
        ids.push_back(sim.schedule_at(1'000'000 + i, [] {}));
    }
    int live_fired = 0;
    sim.schedule_at(2'000'000, [&] { ++live_fired; });
    for (const auto id : ids) EXPECT_TRUE(sim.cancel(id));

    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_LE(sim.queue_footprint(), 128u)
        << "compaction must reclaim cancelled slots, not wait for their timestamps";
    sim.run();
    EXPECT_EQ(live_fired, 1);
    EXPECT_TRUE(sim.empty());
}

TEST(Simulation, InterleavedCancelAndFireStaysConsistent) {
    Simulation sim;
    std::vector<int> fired;
    std::vector<Simulation::EventId> ids;
    for (int i = 0; i < 200; ++i) {
        ids.push_back(sim.schedule_at(i, [&fired, i] { fired.push_back(i); }));
    }
    for (int i = 0; i < 200; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
    sim.run();
    ASSERT_EQ(fired.size(), 100u);
    for (std::size_t k = 0; k < fired.size(); ++k) {
        EXPECT_EQ(fired[k], static_cast<int>(2 * k + 1));
    }
    EXPECT_FALSE(sim.cancel(ids[1]));  // already fired
}

TEST(Simulation, StaleHandleNeverCancelsTheSlotsNewTenant) {
    // Handler storage is reused once an event fires or is cancelled; the old
    // handle must not reach the event that reuses it.
    Simulation sim;
    const auto first = sim.schedule_at(10, [] {});
    ASSERT_EQ(sim.run(), 1u);
    bool fired = false;
    const auto second = sim.schedule_at(20, [&] { fired = true; });
    EXPECT_EQ(sim.slot_footprint(), 1u) << "the fired event's slot is reused";
    EXPECT_NE(first, second);
    EXPECT_FALSE(sim.cancel(first));
    EXPECT_EQ(sim.pending(), 1u);

    // Same after a cancel: the cancelled handle stays dead.
    const auto third = sim.schedule_at(30, [] {});
    EXPECT_TRUE(sim.cancel(third));
    const auto fourth = sim.schedule_at(40, [] {});
    EXPECT_FALSE(sim.cancel(third));
    EXPECT_NE(third, fourth);
    EXPECT_FALSE(sim.cancel(0)) << "0 never names an event";

    EXPECT_EQ(sim.run(), 2u);
    EXPECT_TRUE(fired);
}

TEST(Simulation, TieBreakPolicySeesTheSchedulingSequence) {
    // Policies key on the plain 1, 2, 3, ... count of schedule calls, not on
    // the handle — whatever the handle encodes, and however slots are
    // reused, explorer schedules stay what they were.
    Simulation sim;
    std::vector<std::uint64_t> seen;
    sim.set_tie_break([&seen](std::uint64_t seq, TimePoint) {
        seen.push_back(seq);
        return seq;
    });
    sim.schedule_at(5, [] {});
    const auto cancelled = sim.schedule_at(5, [] {});
    sim.cancel(cancelled);
    sim.schedule_at(5, [&sim] { sim.schedule_after(1, [] {}); });
    sim.run();
    sim.schedule_at(50, [] {});
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(Simulation, PendingIsExactAcrossFireAndCancel) {
    Simulation sim;
    EXPECT_TRUE(sim.empty());
    std::vector<Simulation::EventId> ids;
    for (int i = 0; i < 6; ++i) ids.push_back(sim.schedule_at(10 * (i + 1), [] {}));
    EXPECT_EQ(sim.pending(), 6u);
    EXPECT_TRUE(sim.cancel(ids[2]));
    EXPECT_FALSE(sim.cancel(ids[2]));
    EXPECT_EQ(sim.pending(), 5u);
    ASSERT_TRUE(sim.step());  // fires ids[0]
    EXPECT_EQ(sim.pending(), 4u);
    EXPECT_FALSE(sim.cancel(ids[0]));
    EXPECT_EQ(sim.pending(), 4u);
    std::size_t seen_inside = 99;
    sim.schedule_at(15, [&] { seen_inside = sim.pending(); });
    EXPECT_EQ(sim.pending(), 5u);
    ASSERT_TRUE(sim.step());  // fires the t=15 event: it no longer counts
    EXPECT_EQ(seen_inside, 4u);
    EXPECT_EQ(sim.run_until(35), 1u);  // ids[1]; ids[2] was cancelled
    EXPECT_EQ(sim.pending(), 3u);
    EXPECT_EQ(sim.run(), 3u);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_TRUE(sim.empty());
}

TEST(Simulation, SlotTableIsBoundedByThePendingHighWaterMark) {
    // 10k schedule -> fire cycles with never more than 8 events pending
    // must not grow the handler table past 8 entries.
    Simulation sim;
    std::size_t fired = 0;
    for (int i = 0; i < 8; ++i) sim.schedule_after(1 + i, [&fired] { ++fired; });
    for (int cycle = 0; cycle < 10'000; ++cycle) {
        ASSERT_TRUE(sim.step());
        EXPECT_LE(sim.pending(), 7u);
        sim.schedule_after(1 + cycle % 8, [&fired] { ++fired; });
    }
    sim.run();
    EXPECT_EQ(fired, 10'008u);
    EXPECT_LE(sim.slot_footprint(), 8u);
}

// --- tie-break policy seam ---------------------------------------------------

TEST(Simulation, DefaultTieBreakIsFifoRegression) {
    // Pins the historical contract the whole repo's byte-identical reports
    // rest on: with no policy installed, same-timestamp events fire in
    // schedule order — even when their scheduling interleaves with other
    // timestamps. Guards the pluggable tie-break seam against silently
    // changing the default.
    Simulation sim;
    std::vector<int> order;
    sim.schedule_at(20, [&] { order.push_back(200); });
    for (int i = 0; i < 8; ++i) {
        sim.schedule_at(10, [&order, i] { order.push_back(i); });
        sim.schedule_at(30, [&order, i] { order.push_back(300 + i); });
    }
    sim.schedule_at(10, [&] { order.push_back(8); });
    sim.run();
    std::vector<int> expected;
    for (int i = 0; i <= 8; ++i) expected.push_back(i);
    expected.push_back(200);
    for (int i = 0; i < 8; ++i) expected.push_back(300 + i);
    EXPECT_EQ(order, expected);
}

TEST(Simulation, TieBreakPolicyPermutesEqualTimestampsOnly) {
    // A reversing policy flips the order among equal times; distinct
    // timestamps still fire in time order regardless of policy.
    Simulation sim;
    sim.set_tie_break([](std::uint64_t seq, TimePoint) { return ~seq; });
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        sim.schedule_at(10, [&order, i] { order.push_back(i); });
    }
    sim.schedule_at(5, [&] { order.push_back(-1); });
    sim.schedule_at(20, [&] { order.push_back(99); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 4, 3, 2, 1, 0, 99}));
}

TEST(Simulation, TieBreakPolicyAppliesFromInstallationOnward) {
    // Keys are assigned at scheduling time: events queued before the policy
    // was installed keep their FIFO keys.
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        sim.schedule_at(10, [&order, i] { order.push_back(i); });
    }
    sim.set_tie_break([](std::uint64_t seq, TimePoint) { return ~seq; });
    for (int i = 3; i < 6; ++i) {
        sim.schedule_at(10, [&order, i] { order.push_back(i); });
    }
    sim.run();
    // Pre-policy events keep small FIFO keys (sequence 1..3) and fire first, in
    // order; post-policy events carry large reversed keys and fire reversed.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 5, 4, 3}));
}

TEST(Simulation, SeededTieBreakIsDeterministic) {
    const auto run_with_seed = [](std::uint64_t seed) {
        Simulation sim;
        // The same keying the scenario runner installs for a non-zero
        // Scenario::tie_break_seed.
        sim.set_tie_break([seed](std::uint64_t seq, TimePoint) {
            std::uint64_t state = seed ^ (seq * 0x9e3779b97f4a7c15ULL);
            return splitmix64(state);
        });
        std::vector<int> order;
        for (int i = 0; i < 16; ++i) {
            sim.schedule_at(10, [&order, i] { order.push_back(i); });
        }
        sim.run();
        return order;
    };
    EXPECT_EQ(run_with_seed(7), run_with_seed(7));
    EXPECT_NE(run_with_seed(7), run_with_seed(8));
}

TEST(ThreadPool, SingleWorkerSerializesTasks) {
    Simulation sim;
    SimThreadPool pool(sim, 1);
    std::vector<TimePoint> completions;
    pool.submit(10, [&] { completions.push_back(sim.now()); });
    pool.submit(10, [&] { completions.push_back(sim.now()); });
    pool.submit(10, [&] { completions.push_back(sim.now()); });
    sim.run();
    EXPECT_EQ(completions, (std::vector<TimePoint>{10, 20, 30}));
}

TEST(ThreadPool, ParallelWorkersOverlap) {
    Simulation sim;
    SimThreadPool pool(sim, 3);
    std::vector<TimePoint> completions;
    for (int i = 0; i < 3; ++i) {
        pool.submit(10, [&] { completions.push_back(sim.now()); });
    }
    sim.run();
    EXPECT_EQ(completions, (std::vector<TimePoint>{10, 10, 10}));
}

TEST(ThreadPool, QueueDrainsFifo) {
    Simulation sim;
    SimThreadPool pool(sim, 2);
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        pool.submit(10, [&order, i] { order.push_back(i); });
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(pool.tasks_completed(), 6u);
    EXPECT_EQ(pool.busy_time(), 60);
}

TEST(ThreadPool, ThroughputScalesWithWorkersUntilSaturation) {
    // 20 tasks of cost 10 on k workers should finish at ceil(20/k)*10.
    for (const int workers : {1, 2, 4, 10, 20, 40}) {
        Simulation sim;
        SimThreadPool pool(sim, workers);
        for (int i = 0; i < 20; ++i) pool.submit(10, [] {});
        sim.run();
        const TimePoint expected = ((20 + workers - 1) / workers) * 10;
        EXPECT_EQ(sim.now(), expected) << "workers=" << workers;
    }
}

TEST(ThreadPool, RejectsZeroWorkers) {
    Simulation sim;
    EXPECT_THROW(SimThreadPool(sim, 0), std::invalid_argument);
}

TEST(ThreadPool, CompletionCanSubmitMoreWork) {
    Simulation sim;
    SimThreadPool pool(sim, 1);
    int chained = 0;
    pool.submit(5, [&] {
        pool.submit(5, [&] { chained = 1; });
    });
    sim.run();
    EXPECT_EQ(chained, 1);
    EXPECT_EQ(sim.now(), 10);
}

TEST(CostModel, MonotoneInPayloadSize) {
    const CostModel cm;
    EXPECT_LE(cm.marshal(0), cm.marshal(1000));
    EXPECT_LE(cm.sign(0), cm.sign(10000));
    EXPECT_LT(cm.verify(0), cm.sign(0));  // verify (e=65537) cheaper than sign
}

TEST(Stats, BasicMoments) {
    Stats s;
    for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Stats, Percentiles) {
    Stats s;
    for (int i = 1; i <= 100; ++i) s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
    EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
}

TEST(Stats, EmptyIsSafe) {
    const Stats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.percentile(0.5), 0.0);
}

}  // namespace
}  // namespace failsig::sim
