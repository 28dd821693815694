#include "trace/trace.h"

#include <gtest/gtest.h>

#include <memory>

#include "obs/clock.h"

namespace onoff::trace {
namespace {

// Installs a settable obs::Clock, the tracer's time source, for the test's
// lifetime and restores the wall clock on destruction (the shared_ptr keeps
// the cell alive for any reader that raced the restore).
class FakeClock {
 public:
  explicit FakeClock(uint64_t now_us)
      : now_us_(std::make_shared<uint64_t>(now_us)) {
    auto cell = now_us_;
    obs::Clock::Install([cell] { return *cell; });
  }
  ~FakeClock() { obs::Clock::Install(nullptr); }
  FakeClock(const FakeClock&) = delete;
  FakeClock& operator=(const FakeClock&) = delete;
  void Set(uint64_t now_us) { *now_us_ = now_us; }

 private:
  std::shared_ptr<uint64_t> now_us_;
};

TEST(TracerTest, RootSpanAndChildComplete) {
  Tracer tracer;
  FakeClock clock(100);

  TraceContext root = tracer.StartTrace();
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(root.span_id, 0u);

  TraceContext span = tracer.BeginSpan(root, "outer", "test");
  ASSERT_TRUE(span.valid());
  EXPECT_EQ(span.trace_id, root.trace_id);
  clock.Set(250);
  TraceContext child = tracer.BeginSpan(span, "inner", "test");
  clock.Set(300);
  tracer.EndSpan(child);
  clock.Set(400);
  tracer.EndSpan(span, {{"k", "v"}});

  std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Stable order: (trace_id, start_us, span_id).
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].start_us, 100u);
  EXPECT_EQ(spans[0].dur_us, 300u);
  EXPECT_EQ(spans[0].parent_span_id, 0u);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "k");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent_span_id, spans[0].span_id);
  EXPECT_EQ(spans[1].dur_us, 50u);
}

TEST(TracerTest, InvalidContextIsNoOp) {
  Tracer tracer;
  TraceContext invalid;
  EXPECT_FALSE(invalid.valid());
  TraceContext span = tracer.BeginSpan(invalid, "x", "test");
  EXPECT_FALSE(span.valid());
  tracer.EndSpan(span);
  tracer.Event(invalid, "e", "test");
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.spans_completed(), 0u);
}

TEST(TracerTest, DeterministicSampling) {
  TracerConfig config;
  config.sample_every = 4;
  Tracer tracer(config);
  int sampled = 0;
  for (int i = 0; i < 16; ++i) {
    if (tracer.StartTrace().valid()) ++sampled;
  }
  EXPECT_EQ(sampled, 4);
  EXPECT_EQ(tracer.traces_started(), 16u);
  EXPECT_EQ(tracer.traces_sampled_out(), 12u);
}

TEST(TracerTest, RingOverwritesOldest) {
  TracerConfig config;
  config.ring_capacity = 3;
  Tracer tracer(config);
  TraceContext root = tracer.StartTrace();
  for (int i = 0; i < 5; ++i) {
    tracer.Event(root, "event" + std::to_string(i), "test");
  }
  std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(tracer.spans_dropped(), 2u);
  // The two oldest were overwritten.
  EXPECT_EQ(spans[0].name, "event2");
  EXPECT_EQ(spans[2].name, "event4");
}

TEST(TracerTest, ScopedContextStackNests) {
  EXPECT_FALSE(CurrentContext().valid());
  TraceContext outer{7, 1};
  {
    ScopedContext a(outer);
    EXPECT_EQ(CurrentContext().trace_id, 7u);
    TraceContext inner{7, 2};
    {
      ScopedContext b(inner);
      EXPECT_EQ(CurrentContext().span_id, 2u);
    }
    EXPECT_EQ(CurrentContext().span_id, 1u);
  }
  EXPECT_FALSE(CurrentContext().valid());
}

TEST(TracerTest, GlobalInstallRestores) {
  EXPECT_EQ(Tracer::Global(), nullptr);
  Tracer tracer;
  Tracer* previous = Tracer::InstallGlobal(&tracer);
  EXPECT_EQ(previous, nullptr);
  EXPECT_EQ(Tracer::Global(), &tracer);
  Tracer::InstallGlobal(previous);
  EXPECT_EQ(Tracer::Global(), nullptr);
}

// Two tracers fed the same operations under the same virtual clock export
// byte-identical JSON in both schemas — the determinism contract.
TEST(TracerTest, ExportsAreByteDeterministic) {
  auto build = [] {
    Tracer tracer;
    FakeClock clock(0);
    TraceContext root = tracer.StartTrace();
    TraceContext span =
        tracer.BeginSpan(root, "work", "test", {{"zeta", "1"}, {"alpha", "2"}});
    clock.Set(10);
    tracer.Event(span, "tick", "test");
    clock.Set(42);
    tracer.EndSpan(span);
    return std::make_pair(tracer.ToJson().Dump(),
                          tracer.ToChromeTrace().Dump());
  };
  auto [json1, chrome1] = build();
  auto [json2, chrome2] = build();
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(chrome1, chrome2);
  // Args are key-sorted at export.
  EXPECT_LT(json1.find("\"alpha\""), json1.find("\"zeta\""));
  EXPECT_NE(json1.find("onoffchain-trace-v1"), std::string::npos);
  EXPECT_NE(chrome1.find("traceEvents"), std::string::npos);
}

TEST(TracerTest, ScopedSpanDeliversEndArgs) {
  Tracer tracer;
  TraceContext root = tracer.StartTrace();
  {
    ScopedSpan span(&tracer, root, "scoped", "test");
    ASSERT_TRUE(span.context().valid());
    span.AddArg("result", "ok");
  }
  std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].second, "ok");
  // Null tracer / invalid parent variants are inert.
  ScopedSpan noop_tracer(nullptr, root, "x", "test");
  EXPECT_FALSE(noop_tracer.context().valid());
  ScopedSpan noop_parent(&tracer, TraceContext{}, "x", "test");
  EXPECT_FALSE(noop_parent.context().valid());
}

TEST(TracerTest, ClearDropsSpansButKeepsIdsUnique) {
  Tracer tracer;
  TraceContext first = tracer.StartTrace();
  tracer.Event(first, "e", "test");
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  TraceContext second = tracer.StartTrace();
  EXPECT_NE(second.trace_id, first.trace_id);
}

}  // namespace
}  // namespace onoff::trace
