// FS-NewTOP integration tests (paper §3.1): the same GC state machine, now
// wrapped in fail-signal pairs. Key claims under test:
//  * total order still holds end-to-end, transparently to applications;
//  * a Byzantine middleware fault yields fail-signals, never wrong results;
//  * fail-signal suspicions are never false — the delay surge that splits
//    plain NewTOP leaves FS-NewTOP's group intact;
//  * all correct members install the view that excludes the faulty pair.
#include <gtest/gtest.h>

#include "deploy/fsnewtop.hpp"

namespace failsig::fsnewtop {
namespace {

using deploy::FsNewTopDeployment;
using deploy::Placement;
using newtop::Delivery;
using newtop::MemberId;
using newtop::ServiceType;

struct Collector {
    std::vector<std::vector<std::string>> delivered;
    std::vector<std::vector<newtop::GroupView>> views;
    std::vector<std::string> middleware_failures;

    void attach(FsNewTopDeployment& d) {
        const int n = d.group_size();
        delivered.resize(static_cast<std::size_t>(n));
        views.resize(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            d.invocation(i).on_delivery([this, i](const Delivery& dl) {
                delivered[static_cast<std::size_t>(i)].push_back(
                    std::to_string(dl.sender) + ":" + string_of(dl.payload));
            });
            d.invocation(i).on_view([this, i](const newtop::GroupView& v) {
                views[static_cast<std::size_t>(i)].push_back(v);
            });
            d.invocation(i).on_middleware_failure(
                [this](const std::string& name) { middleware_failures.push_back(name); });
        }
    }
};

class PlacementTest : public ::testing::TestWithParam<Placement> {};

TEST_P(PlacementTest, SymmetricTotalOrderEndToEnd) {
    deploy::DeploymentSpec opts;
    opts.group_size = 3;
    opts.placement = GetParam();
    FsNewTopDeployment d(opts);
    Collector c;
    c.attach(d);

    for (int k = 0; k < 4; ++k) {
        for (int i = 0; i < 3; ++i) {
            d.invocation(i).multicast(ServiceType::kSymmetricTotalOrder,
                                      bytes_of("k" + std::to_string(k) + "i" + std::to_string(i)));
        }
    }
    d.sim().run();

    EXPECT_EQ(c.delivered[0].size(), 12u);
    EXPECT_EQ(c.delivered[1], c.delivered[0]);
    EXPECT_EQ(c.delivered[2], c.delivered[0]);
    EXPECT_TRUE(c.middleware_failures.empty());
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(d.leader_fso(i).signalling());
        EXPECT_FALSE(d.follower_fso(i).signalling());
    }
}

INSTANTIATE_TEST_SUITE_P(Placements, PlacementTest,
                         ::testing::Values(Placement::kCollocated, Placement::kFull),
                         [](const auto& info) {
                             return info.param == Placement::kCollocated ? "Collocated" : "Full";
                         });

TEST(FsNewTop, GcReplicasStayIdentical) {
    deploy::DeploymentSpec opts;
    opts.group_size = 3;
    FsNewTopDeployment d(opts);
    Collector c;
    c.attach(d);
    for (int i = 0; i < 3; ++i) {
        d.invocation(i).multicast(ServiceType::kSymmetricTotalOrder, bytes_of("m"));
    }
    d.sim().run();
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(d.gc_leader(i).messages_delivered(), d.gc_follower(i).messages_delivered());
        EXPECT_EQ(d.gc_leader(i).view(), d.gc_follower(i).view());
    }
}

TEST(FsNewTop, AsymmetricTotalOrderEndToEnd) {
    deploy::DeploymentSpec opts;
    opts.group_size = 4;
    FsNewTopDeployment d(opts);
    Collector c;
    c.attach(d);
    for (int i = 0; i < 4; ++i) {
        d.invocation(i).multicast(ServiceType::kAsymmetricTotalOrder,
                                  bytes_of("a" + std::to_string(i)));
    }
    d.sim().run();
    EXPECT_EQ(c.delivered[0].size(), 4u);
    for (int i = 1; i < 4; ++i) EXPECT_EQ(c.delivered[static_cast<std::size_t>(i)], c.delivered[0]);
}

TEST(FsNewTop, ByzantineGcNodeIsDetectedAndExcluded) {
    // Corrupt the GC outputs on one node of member 2's pair. The pair must
    // fail-signal; the remaining members must install a view without member
    // 2; and nobody may deliver a corrupted message.
    deploy::DeploymentSpec opts;
    opts.group_size = 3;
    FsNewTopDeployment d(opts);
    Collector c;
    c.attach(d);

    fs::FaultPlan plan;
    plan.corrupt_outputs = true;
    d.follower_fso(2).set_fault_plan(plan);

    for (int k = 0; k < 3; ++k) {
        for (int i = 0; i < 3; ++i) {
            d.invocation(i).multicast(ServiceType::kSymmetricTotalOrder,
                                      bytes_of("k" + std::to_string(k) + "i" + std::to_string(i)));
        }
    }
    d.sim().run_until(30 * kSecond);

    // The pair detected the divergence and fail-signalled.
    EXPECT_TRUE(d.leader_fso(2).signalling() || d.follower_fso(2).signalling());

    // Members 0 and 1 removed member 2.
    EXPECT_EQ(d.gc_leader(0).view().members, (std::vector<MemberId>{0, 1}));
    EXPECT_EQ(d.gc_leader(1).view().members, (std::vector<MemberId>{0, 1}));

    // Agreement among survivors, and no corrupted payload was ever delivered:
    // every delivered payload must be one of the honest multicasts.
    EXPECT_EQ(c.delivered[0], c.delivered[1]);
    for (const auto& entry : c.delivered[0]) {
        const auto colon = entry.find(':');
        const std::string payload = entry.substr(colon + 1);
        EXPECT_EQ(payload.size(), 4u);
        EXPECT_EQ(payload[0], 'k');
        EXPECT_EQ(payload[2], 'i');
    }
}

TEST(FsNewTop, CrashedPairNodeYieldsFailSignalNotSilence) {
    // Kill the LAN between member 1's pair nodes: the pair can no longer
    // self-check and must emit fail-signals; members 0 and 2 exclude it
    // deterministically — no timeout guessing involved.
    deploy::DeploymentSpec opts;
    opts.group_size = 3;
    opts.placement = Placement::kFull;  // pair nodes are dedicated
    FsNewTopDeployment d(opts);
    Collector c;
    c.attach(d);

    d.invocation(0).multicast(ServiceType::kSymmetricTotalOrder, bytes_of("warm"));
    d.sim().run();

    d.faults().block(NodeId{3}, NodeId{4});  // member 1's pair nodes (kFull layout)
    d.invocation(0).multicast(ServiceType::kSymmetricTotalOrder, bytes_of("trigger"));
    d.sim().run_until(60 * kSecond);

    EXPECT_EQ(d.gc_leader(0).view().members, (std::vector<MemberId>{0, 2}));
    EXPECT_EQ(d.gc_leader(2).view().members, (std::vector<MemberId>{0, 2}));
}

TEST(FsNewTop, DelaySurgeDoesNotSplitTheGroup) {
    // The same delay surge that splits plain NewTOP (see
    // NewTopDeployment.FalseSuspicionSplitsGroupWithoutAnyFailure) is
    // harmless here: FS-NewTOP has no timeout-based suspector on the
    // asynchronous network, so suspicions cannot be false (§3.1).
    deploy::DeploymentSpec opts;
    opts.group_size = 3;
    FsNewTopDeployment d(opts);
    Collector c;
    c.attach(d);

    d.invocation(0).multicast(ServiceType::kSymmetricTotalOrder, bytes_of("before"));
    d.sim().run();

    d.faults().delay_surge(1 * kSecond, d.sim().now() + 2 * kSecond);
    d.invocation(1).multicast(ServiceType::kSymmetricTotalOrder, bytes_of("during"));
    d.sim().run_until(d.sim().now() + 10 * kSecond);
    d.sim().run();

    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(d.gc_leader(i).view().members, (std::vector<MemberId>{0, 1, 2}))
            << "group must not split under delay surges";
        EXPECT_FALSE(d.leader_fso(i).signalling());
    }
    EXPECT_EQ(c.delivered[0].size(), 2u);
    EXPECT_EQ(c.delivered[1], c.delivered[0]);
    EXPECT_EQ(c.delivered[2], c.delivered[0]);
}

TEST(FsNewTop, SpontaneousFailSignalsExcludeTheirSourceOnly) {
    // fs2 at member 0: its pair emits fail-signals at arbitrary times. The
    // other members exclude member 0 but keep each other.
    deploy::DeploymentSpec opts;
    opts.group_size = 3;
    FsNewTopDeployment d(opts);
    Collector c;
    c.attach(d);

    fs::FaultPlan plan;
    plan.spontaneous_fail_signals = true;
    plan.spontaneous_interval = 30 * kMillisecond;
    d.leader_fso(0).set_fault_plan(plan);

    d.sim().run_until(2 * kSecond);

    EXPECT_EQ(d.gc_leader(1).view().members, (std::vector<MemberId>{1, 2}));
    EXPECT_EQ(d.gc_leader(2).view().members, (std::vector<MemberId>{1, 2}));
}

TEST(FsNewTop, TotalOrderContinuesAmongSurvivors) {
    deploy::DeploymentSpec opts;
    opts.group_size = 3;
    FsNewTopDeployment d(opts);
    Collector c;
    c.attach(d);

    fs::FaultPlan plan;
    plan.drop_outputs = true;
    d.leader_fso(1).set_fault_plan(plan);

    d.invocation(0).multicast(ServiceType::kSymmetricTotalOrder, bytes_of("x"));
    d.sim().run_until(60 * kSecond);

    // Survivors agree on a view without member 1 and can keep ordering.
    ASSERT_EQ(d.gc_leader(0).view().members, (std::vector<MemberId>{0, 2}));
    d.invocation(2).multicast(ServiceType::kSymmetricTotalOrder, bytes_of("y"));
    d.sim().run_until(d.sim().now() + 30 * kSecond);

    const auto& d0 = c.delivered[0];
    const auto& d2 = c.delivered[2];
    EXPECT_EQ(d0, d2);
    EXPECT_TRUE(std::find(d0.begin(), d0.end(), "2:y") != d0.end());
}

TEST(FsNewTop, DeterministicAcrossRuns) {
    auto run_once = [] {
        deploy::DeploymentSpec opts;
        opts.group_size = 3;
        opts.seed = 99;
        FsNewTopDeployment d(opts);
        Collector c;
        c.attach(d);
        for (int i = 0; i < 3; ++i) {
            d.invocation(i).multicast(ServiceType::kSymmetricTotalOrder,
                                      bytes_of("m" + std::to_string(i)));
        }
        d.sim().run();
        return c.delivered[0];
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(FsNewTop, LargePayloadsSurviveTheFullStack) {
    deploy::DeploymentSpec opts;
    opts.group_size = 2;
    FsNewTopDeployment d(opts);
    std::vector<Bytes> got;
    d.invocation(1).on_delivery([&](const Delivery& dl) { got.push_back(dl.payload); });
    Bytes big(8192);
    for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 7);
    d.invocation(0).multicast(ServiceType::kSymmetricTotalOrder, big);
    d.sim().run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], big);
}

}  // namespace
}  // namespace failsig::fsnewtop
