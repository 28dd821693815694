// Flight recorder: ring wrap accounting, seq-ordered snapshots, concurrent
// recording, triage-bundle structure, and the global-install / call-site
// helper contract.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/audit.h"
#include "obs/flight_recorder.h"

namespace onoff::obs {
namespace {

TEST(FlightRecorderTest, RecordsAndSnapshotsInSeqOrder) {
  FlightRecorderConfig config;
  config.capacity = 64;
  FlightRecorder rec(config);
  for (uint64_t i = 0; i < 10; ++i) {
    rec.Record(FlightKind::kBlockCommit, /*trace_id=*/i, /*a=*/i, /*b=*/0,
               "root-" + std::to_string(i));
  }
  EXPECT_EQ(rec.events_recorded(), 10u);
  EXPECT_EQ(rec.events_dropped(), 0u);
  std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_EQ(events[3].a, 3u);
  EXPECT_STREQ(events[3].detail, "root-3");
  EXPECT_EQ(events[3].kind, FlightKind::kBlockCommit);
}

TEST(FlightRecorderTest, RingWrapDropsOldestAndCountsThem) {
  FlightRecorderConfig config;
  config.capacity = 8;
  FlightRecorder rec(config);
  for (uint64_t i = 0; i < 20; ++i) {
    rec.Record(FlightKind::kPoolAdmit, 0, /*a=*/i, 0, "");
  }
  EXPECT_EQ(rec.events_recorded(), 20u);
  EXPECT_EQ(rec.events_dropped(), 12u);
  std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Only the newest 8 survive.
  EXPECT_EQ(events.front().a, 12u);
  EXPECT_EQ(events.back().a, 19u);
  rec.Clear();
  EXPECT_EQ(rec.events_recorded(), 0u);
  EXPECT_EQ(rec.events_dropped(), 0u);
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(FlightRecorderTest, DetailIsTruncatedNotOverflowed) {
  FlightRecorder rec;
  std::string long_detail(200, 'x');
  rec.Record(FlightKind::kLog, 0, 0, 0, long_detail);
  std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  std::string stored = events[0].detail;
  EXPECT_LT(stored.size(), sizeof events[0].detail);
  EXPECT_EQ(stored, long_detail.substr(0, stored.size()));
}

TEST(FlightRecorderTest, ConcurrentRecordsAllLand) {
  FlightRecorderConfig config;
  config.capacity = 100'000;  // large enough that nothing wraps
  FlightRecorder rec(config);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.Record(FlightKind::kBusDeliver, static_cast<uint64_t>(t),
                   static_cast<uint64_t>(i), 0, "topic");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.events_recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(rec.events_dropped(), 0u);
  std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(FlightRecorderTest, TriageBundleCarriesEventsAndViolation) {
  FlightRecorder rec;
  rec.Record(FlightKind::kSettlement, 7, 21000, 0, "optimistic");
  ViolationReport report;
  report.invariant = "conservation";
  report.message = "balance sum drifted";
  report.trace_id = 7;
  report.block_height = 3;
  report.values.emplace_back("expected", "100");
  report.values.emplace_back("actual", "101");
  Json violation = report.ToJson();
  std::string bundle = rec.TriageBundle("unit-test", &violation).Dump();
  EXPECT_NE(bundle.find("\"onoffchain-flightrec-v1\""), std::string::npos);
  EXPECT_NE(bundle.find("\"unit-test\""), std::string::npos);
  EXPECT_NE(bundle.find("\"conservation\""), std::string::npos);
  EXPECT_NE(bundle.find("\"optimistic\""), std::string::npos);
  EXPECT_NE(bundle.find("\"settlement\""), std::string::npos);  // kind name

  std::string path = ::testing::TempDir() + "/flightrec_test_bundle.json";
  ASSERT_TRUE(rec.DumpTriageBundle(path, "unit-test", &violation).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("onoffchain-flightrec-v1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, GlobalInstallRoutesHelperAndRestores) {
  ASSERT_EQ(FlightRecorder::Global(), nullptr)
      << "test requires no ambient global recorder";
  // With no global installed the helper is a no-op.
  FlightRecord(FlightKind::kLog, 0, 0, 0, "dropped on the floor");

  FlightRecorder rec;
  FlightRecorder* prev = FlightRecorder::InstallGlobal(&rec);
  EXPECT_EQ(prev, nullptr);
  EXPECT_EQ(FlightRecorder::Global(), &rec);
  FlightRecord(FlightKind::kPoolDrop, 1, 2, 0, "stale-nonce");
  EXPECT_EQ(rec.events_recorded(), 1u);

  EXPECT_EQ(FlightRecorder::InstallGlobal(prev), &rec);
  EXPECT_EQ(FlightRecorder::Global(), nullptr);
}

}  // namespace
}  // namespace onoff::obs
