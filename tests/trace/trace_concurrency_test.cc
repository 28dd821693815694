// Thread-safety of the tracer ring buffer and the metrics registry under
// concurrent writers. Meant to run under TSan (the CI
// sanitizer job includes it): the assertions are deliberately loose, the
// value is the data-race coverage.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "trace/trace.h"

namespace onoff::trace {
namespace {

TEST(TraceConcurrencyTest, ParallelSpansEventsAndSnapshots) {
  TracerConfig config;
  config.ring_capacity = 256;  // force overwrites under contention
  Tracer tracer(config);
  Tracer* previous = Tracer::InstallGlobal(&tracer);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, &started, t] {
      started.fetch_add(1);
      while (started.load() < kThreads) {
      }  // line up for maximal overlap
      for (int i = 0; i < kOpsPerThread; ++i) {
        TraceContext root = tracer.StartTrace();
        ScopedContext ambient(root);
        TraceContext span = tracer.BeginSpan(
            root, "worker", "test", {{"thread", std::to_string(t)}});
        tracer.Event(span, "tick", "test");
        tracer.EndSpan(span);
        if (i % 64 == 0) (void)tracer.Snapshot();
        if (obs::Counter* c = obs::GetCounterOrNull("trace.test_ops")) {
          c->Inc();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tracer::InstallGlobal(previous);

  EXPECT_EQ(tracer.traces_started(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  // 2 completed spans per op (worker + tick event), ring-capped.
  EXPECT_EQ(tracer.spans_completed() ,
            2u * static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(tracer.Snapshot().size(), 256u);
}

TEST(TraceConcurrencyTest, InstallAndUseRace) {
  // Readers hammer Tracer::Global() while a writer flips it: the atomic
  // install path must never hand out a torn pointer.
  Tracer tracer;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&stop] {
      while (!stop.load()) {
        if (Tracer* g = Tracer::Global()) {
          TraceContext ctx = g->StartTrace();
          g->Event(ctx, "ping", "test");
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    Tracer::InstallGlobal(&tracer);
    Tracer::InstallGlobal(nullptr);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  SUCCEED();
}

}  // namespace
}  // namespace onoff::trace
