#include "sim/transport.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace onoff::sim {
namespace {

class SimTransportTest : public ::testing::Test {
 protected:
  Scheduler sched_;
};

TEST_F(SimTransportTest, DefaultLinkIsIdentity) {
  SimTransport t(&sched_, 1);
  bool delivered = false;
  ASSERT_TRUE(t.Deliver("a", "b", 64, [&] { delivered = true; }));
  EXPECT_FALSE(delivered);  // deferred — lands when the scheduler runs
  sched_.RunAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(sched_.NowMs(), 0u);  // but with zero virtual delay
  EXPECT_EQ(t.stats().delivered, 1u);
}

TEST_F(SimTransportTest, LatencyAndBandwidthShapeDelay) {
  SimTransport t(&sched_, 1);
  LinkConfig cfg;
  cfg.latency_ms = 40;
  cfg.bytes_per_ms = 10;  // 300 bytes -> +30ms serialisation
  t.SetDefaultLink(cfg);
  uint64_t arrived_at = 0;
  ASSERT_TRUE(t.Deliver("a", "b", 300, [&] { arrived_at = sched_.NowMs(); }));
  sched_.RunAll();
  EXPECT_EQ(arrived_at, 70u);
  EXPECT_EQ(t.stats().delay_ms_sum, 70u);
}

TEST_F(SimTransportTest, JitterStaysWithinBound) {
  SimTransport t(&sched_, 7);
  LinkConfig cfg;
  cfg.latency_ms = 100;
  cfg.jitter_ms = 25;
  t.SetDefaultLink(cfg);
  for (int i = 0; i < 50; ++i) {
    uint64_t at = 0;
    uint64_t sent = sched_.NowMs();
    ASSERT_TRUE(t.Deliver("a", "b", 8, [&at, this] { at = sched_.NowMs(); }));
    sched_.RunAll();
    EXPECT_GE(at - sent, 100u);
    EXPECT_LE(at - sent, 125u);
  }
}

TEST_F(SimTransportTest, PerLinkOverrideBeatsDefault) {
  SimTransport t(&sched_, 1);
  LinkConfig slow;
  slow.latency_ms = 500;
  t.SetDefaultLink(slow);
  LinkConfig fast;
  fast.latency_ms = 5;
  t.SetLink("a", "b", fast);
  uint64_t ab = 0, ba = 0;
  t.Deliver("a", "b", 8, [&] { ab = sched_.NowMs(); });
  t.Deliver("b", "a", 8, [&] { ba = sched_.NowMs(); });
  sched_.RunAll();
  EXPECT_EQ(ab, 5u);    // overridden direction
  EXPECT_EQ(ba, 500u);  // default applies to the reverse direction
}

TEST_F(SimTransportTest, TotalLossDropsEverything) {
  SimTransport t(&sched_, 3);
  LinkConfig cfg;
  cfg.loss = 1.0;
  t.SetDefaultLink(cfg);
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(t.Deliver("a", "b", 8, [&] { ++delivered; }));
  }
  sched_.RunAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(t.stats().dropped_loss, 20u);
  EXPECT_EQ(t.stats().sent, 20u);
}

TEST_F(SimTransportTest, PartialLossIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    Scheduler sched;
    SimTransport t(&sched, seed);
    LinkConfig cfg;
    cfg.loss = 0.3;
    t.SetDefaultLink(cfg);
    std::vector<bool> fates;
    for (int i = 0; i < 200; ++i) {
      fates.push_back(t.Deliver("a", "b", 8, [] {}));
    }
    sched.RunAll();
    return fates;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
  // ~30% loss: sanity-bound, deterministic given the seed above.
  auto fates = run(11);
  int drops = 0;
  for (bool ok : fates) drops += ok ? 0 : 1;
  EXPECT_GT(drops, 30);
  EXPECT_LT(drops, 90);
}

TEST_F(SimTransportTest, IndependentLinksDoNotPerturbEachOther) {
  // Consuming randomness on one link must not change another link's draws.
  auto run = [](bool also_use_cd) {
    Scheduler sched;
    SimTransport t(&sched, 5);
    LinkConfig cfg;
    cfg.loss = 0.5;
    t.SetDefaultLink(cfg);
    std::vector<bool> ab_fates;
    for (int i = 0; i < 50; ++i) {
      if (also_use_cd) t.Deliver("c", "d", 8, [] {});
      ab_fates.push_back(t.Deliver("a", "b", 8, [] {}));
    }
    sched.RunAll();
    return ab_fates;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST_F(SimTransportTest, PartitionBlocksCrossIslandTraffic) {
  SimTransport t(&sched_, 1);
  t.Partition({"a", "b"});
  EXPECT_TRUE(t.partitioned());
  int delivered = 0;
  EXPECT_TRUE(t.Deliver("a", "b", 8, [&] { ++delivered; }));   // same side
  EXPECT_FALSE(t.Deliver("a", "c", 8, [&] { ++delivered; }));  // cross
  EXPECT_FALSE(t.Deliver("c", "b", 8, [&] { ++delivered; }));  // cross
  EXPECT_TRUE(t.Deliver("c", "d", 8, [&] { ++delivered; }));   // same side
  sched_.RunAll();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(t.stats().dropped_partition, 2u);
  t.Heal();
  EXPECT_FALSE(t.partitioned());
  EXPECT_TRUE(t.Deliver("a", "c", 8, [&] { ++delivered; }));
  sched_.RunAll();
  EXPECT_EQ(delivered, 3);
}

TEST_F(SimTransportTest, InFlightMessageSurvivesPartitionOnset) {
  SimTransport t(&sched_, 1);
  LinkConfig cfg;
  cfg.latency_ms = 100;
  t.SetDefaultLink(cfg);
  bool delivered = false;
  ASSERT_TRUE(t.Deliver("a", "c", 8, [&] { delivered = true; }));
  t.SchedulePartition(10, {"a", "b"}, 0);  // starts while msg is in flight
  sched_.RunAll();
  // Partitions cut links, not packets already past them.
  EXPECT_TRUE(delivered);
}

TEST_F(SimTransportTest, ScheduledPartitionHealsOnTime) {
  SimTransport t(&sched_, 1);
  t.SchedulePartition(50, {"a"}, 150);
  sched_.RunUntil(60);
  EXPECT_TRUE(t.partitioned());
  EXPECT_FALSE(t.Deliver("a", "b", 8, [] {}));
  sched_.RunUntil(200);
  EXPECT_FALSE(t.partitioned());
  EXPECT_TRUE(t.Deliver("a", "b", 8, [] {}));
  sched_.RunAll();
}

TEST_F(SimTransportTest, CrashedEndpointNeitherSendsNorReceives) {
  SimTransport t(&sched_, 1);
  t.Crash("b");
  EXPECT_TRUE(t.crashed("b"));
  int delivered = 0;
  EXPECT_FALSE(t.Deliver("a", "b", 8, [&] { ++delivered; }));
  EXPECT_FALSE(t.Deliver("b", "a", 8, [&] { ++delivered; }));
  sched_.RunAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(t.stats().dropped_crash, 2u);
  t.Restart("b");
  EXPECT_FALSE(t.crashed("b"));
  EXPECT_TRUE(t.Deliver("a", "b", 8, [&] { ++delivered; }));
  sched_.RunAll();
  EXPECT_EQ(delivered, 1);
}

TEST_F(SimTransportTest, InFlightMessageToCrashingReceiverIsDroppedOnArrival) {
  SimTransport t(&sched_, 1);
  LinkConfig cfg;
  cfg.latency_ms = 100;
  t.SetDefaultLink(cfg);
  bool delivered = false;
  // Send succeeds (receiver is up), but the receiver crashes at t=10 while
  // the message is still on the wire: the sender is never told.
  EXPECT_TRUE(t.Deliver("a", "b", 8, [&] { delivered = true; }));
  t.ScheduleCrash(10, "b", 0);
  sched_.RunAll();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(t.stats().dropped_crash, 1u);
}

TEST_F(SimTransportTest, StatsAreSeedDeterministic) {
  auto run = [](uint64_t seed) {
    Scheduler sched;
    SimTransport t(&sched, seed);
    LinkConfig cfg;
    cfg.latency_ms = 20;
    cfg.jitter_ms = 30;
    cfg.loss = 0.25;
    t.SetDefaultLink(cfg);
    for (int i = 0; i < 100; ++i) {
      t.Deliver("a", "b", 64, [] {});
      t.Deliver("b", "a", 64, [] {});
    }
    sched.RunAll();
    return t.stats();
  };
  SimTransport::Stats s1 = run(77), s2 = run(77);
  EXPECT_EQ(s1.sent, s2.sent);
  EXPECT_EQ(s1.delivered, s2.delivered);
  EXPECT_EQ(s1.dropped_loss, s2.dropped_loss);
  EXPECT_EQ(s1.delay_ms_sum, s2.delay_ms_sum);
  EXPECT_EQ(s1.sent, 200u);
  EXPECT_EQ(s1.delivered + s1.dropped_total(), s1.sent);
}

}  // namespace
}  // namespace onoff::sim
