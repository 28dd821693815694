#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.h"

namespace onoff::obs {
namespace {

TEST(JsonTest, ScalarsAndEscaping) {
  EXPECT_EQ(Json::Null().Dump(false), "null");
  EXPECT_EQ(Json::Bool(true).Dump(false), "true");
  EXPECT_EQ(Json::Int(-7).Dump(false), "-7");
  EXPECT_EQ(Json::Uint(18'000'000'000'000'000'000ull).Dump(false),
            "18000000000000000000");
  EXPECT_EQ(Json::Str("a\"b\\c\n").Dump(false), "\"a\\\"b\\\\c\\n\"");
}

TEST(JsonTest, IntegralDoublesPrintWithoutDecimalPoint) {
  EXPECT_EQ(Json::Num(21000).Dump(false), "21000");
  EXPECT_EQ(Json::Num(0.5).Dump(false), "0.5");
}

TEST(JsonTest, ObjectsKeepInsertionOrder) {
  Json obj = Json::Object();
  obj.Set("z", Json::Int(1)).Set("a", Json::Int(2));
  EXPECT_EQ(obj.Dump(false), "{\"z\":1,\"a\":2}");
  Json arr = Json::Array();
  arr.Push(Json::Int(1)).Push(Json::Str("x"));
  EXPECT_EQ(arr.Dump(false), "[1,\"x\"]");
}

TEST(MetricsTest, CounterAndGauge) {
  Counter c;
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  Histogram h({1.0, 10.0, 100.0});
  for (double v : {0.5, 5.0, 5.0, 50.0, 5000.0}) h.Observe(v);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_DOUBLE_EQ(h.Sum(), 5060.5);
  EXPECT_DOUBLE_EQ(h.Min(), 0.5);
  EXPECT_DOUBLE_EQ(h.Max(), 5000.0);
  // Cumulative-style per-bucket counts: <=1, <=10, <=100, +Inf overflow.
  std::vector<uint64_t> buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(MetricsTest, ExponentialBuckets) {
  std::vector<double> b = ExponentialBuckets(1.0, 4.0, 3);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 4.0);
  EXPECT_DOUBLE_EQ(b[2], 16.0);
}

TEST(MetricsTest, RegistryPointersAreStableAndNamed) {
  Registry reg;
  Counter* a = reg.GetCounter("a");
  a->Inc(3);
  // Creating more instruments must not invalidate earlier pointers.
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("c" + std::to_string(i));
  }
  EXPECT_EQ(reg.GetCounter("a"), a);
  EXPECT_EQ(reg.CounterValue("a"), 3u);
  EXPECT_EQ(reg.CounterValue("missing"), 0u);
  reg.GetGauge("g")->Set(-5);
  EXPECT_EQ(reg.GaugeValue("g"), -5);
  Histogram* h = reg.GetHistogram("h", {1.0, 2.0});
  // Same name returns the same histogram; later bounds are ignored.
  EXPECT_EQ(reg.GetHistogram("h", {99.0}), h);
  EXPECT_EQ(h->Bounds().size(), 2u);
}

TEST(MetricsTest, RegistryIsThreadSafe) {
  Registry reg;
  Counter* shared = reg.GetCounter("shared");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, shared, t] {
      for (int i = 0; i < 1000; ++i) {
        shared->Inc();
        reg.GetCounter("t" + std::to_string(t))->Inc();
        reg.GetHistogram("h", {10.0})->Observe(static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.CounterValue("shared"), 4000u);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(reg.CounterValue("t" + std::to_string(t)), 1000u);
  }
  EXPECT_EQ(reg.GetHistogram("h", {})->Count(), 4000u);
}

TEST(MetricsTest, JsonExportSchema) {
  Registry reg;
  reg.GetCounter("chain.blocks")->Inc(2);
  reg.GetGauge("pool.depth")->Set(7);
  Histogram* h = reg.GetHistogram("span_us", {1.0, 10.0});
  h->Observe(5.0);
  std::string json = reg.ToJsonString();
  EXPECT_NE(json.find("\"schema\": \"onoffchain-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"chain.blocks\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"pool.depth\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"span_us\""), std::string::npos);
  // The overflow bucket serialises with le = "+Inf".
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
}

TEST(MetricsTest, WriteJsonFile) {
  Registry reg;
  reg.GetCounter("x")->Inc();
  std::string path = ::testing::TempDir() + "/metrics_test_out.json";
  ASSERT_TRUE(reg.WriteJsonFile(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("onoffchain-metrics-v1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsTest, ScopedTimerObservesIntoHistogram) {
  Histogram h({1e9});
  {
    ScopedTimer timer(&h);
    EXPECT_GE(timer.ElapsedUs(), 0.0);
  }
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_GE(h.Sum(), 0.0);
  // A null histogram is a supported no-op target.
  { ScopedTimer noop(nullptr); }
}

TEST(MetricsTest, GlobalRegistryRespectsCompileTimeSwitch) {
#if ONOFF_METRICS
  // May still be nullptr if the environment disables it; when present it
  // must be the same instance on every call.
  Registry* g = Registry::Global();
  EXPECT_EQ(Registry::Global(), g);
#else
  EXPECT_EQ(Registry::Global(), nullptr);
#endif
}

// Export determinism: the same instruments dumped from registries populated
// in different insertion orders serialise to byte-identical JSON (keys are
// sorted), so diffing two runs' metric dumps is meaningful.
TEST(MetricsTest, JsonDumpIsByteDeterministicAcrossInsertionOrder) {
  Registry forward;
  forward.GetCounter("alpha")->Inc(1);
  forward.GetCounter("zeta")->Inc(2);
  forward.GetGauge("mid")->Set(3);
  forward.GetHistogram("hist", {1.0, 2.0})->Observe(1.5);

  Registry reversed;
  reversed.GetHistogram("hist", {1.0, 2.0})->Observe(1.5);
  reversed.GetGauge("mid")->Set(3);
  reversed.GetCounter("zeta")->Inc(2);
  reversed.GetCounter("alpha")->Inc(1);

  std::string a = forward.ToJsonString();
  EXPECT_EQ(a, reversed.ToJsonString());
  EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
}

}  // namespace
}  // namespace onoff::obs
