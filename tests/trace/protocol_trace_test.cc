// The acceptance test for end-to-end causal tracing: one protocol run on the
// simulated network yields ONE trace id that links message-bus delivery,
// network hops, tx-pool admission, block inclusion, EVM call frames and
// settlement — and the export is byte-deterministic across identical runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "onoff/protocol.h"
#include "sim/scheduler.h"
#include "sim/transport.h"
#include "trace/trace.h"

namespace onoff::trace {
namespace {

struct TracedRun {
  std::string trace_json;
  std::string chrome_json;
  std::vector<Span> spans;
};

TracedRun RunTracedDispute(uint64_t seed) {
  Tracer tracer;
  Tracer* previous = Tracer::InstallGlobal(&tracer);

  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
  core::MessageBus bus;
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 10;

  sim::Scheduler sched;
  sim::SimTransport transport(&sched, seed);
  sim::LinkConfig link;
  link.latency_ms = 50;
  transport.SetLink(alice.EthAddress().ToHex(), "chain", link);
  transport.SetLink(bob.EthAddress().ToHex(), "chain", link);

  core::BettingProtocol protocol(&chain, &bus, alice, bob, offchain,
                                 contracts::Ether(1));
  protocol.BindSimulation(&sched, &transport);
  core::Behavior dishonest;
  dishonest.admit_loss = false;
  auto report = protocol.Run(dishonest, dishonest);
  Tracer::InstallGlobal(previous);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    EXPECT_EQ(report->settlement, core::Settlement::kDisputed);
  }

  TracedRun run;
  run.trace_json = tracer.ToJson().Dump();
  run.chrome_json = tracer.ToChromeTrace().Dump();
  run.spans = tracer.Snapshot();
  return run;
}

bool HasSpan(const std::vector<Span>& spans, const std::string& name) {
  for (const Span& s : spans) {
    if (s.name == name) return true;
  }
  return false;
}

TEST(ProtocolTraceTest, OneTraceIdLinksEveryLayer) {
  TracedRun run = RunTracedDispute(/*seed=*/42);
  ASSERT_FALSE(run.spans.empty());

  // Exactly one trace id across every span of every layer.
  std::set<uint64_t> trace_ids;
  for (const Span& s : run.spans) trace_ids.insert(s.trace_id);
  EXPECT_EQ(trace_ids.size(), 1u);

  // Every pipeline hop is present under that id: protocol root, network
  // flight, pool admission, transaction application, block inclusion, EVM
  // call frames, settlement.
  EXPECT_TRUE(HasSpan(run.spans, "protocol.run"));
  EXPECT_TRUE(HasSpan(run.spans, "net.flight"));
  EXPECT_TRUE(HasSpan(run.spans, "pool.admit"));
  EXPECT_TRUE(HasSpan(run.spans, "tx.apply"));
  EXPECT_TRUE(HasSpan(run.spans, "block.include"));
  EXPECT_TRUE(HasSpan(run.spans, "evm.call"));
  EXPECT_TRUE(HasSpan(run.spans, "evm.create"));
  EXPECT_TRUE(HasSpan(run.spans, "protocol.settled"));
  EXPECT_TRUE(HasSpan(run.spans, "bus.flight"));

  // Parent links resolve within the trace: every non-root span's parent is
  // another span of the same trace (roots have parent_span_id == 0).
  std::set<uint64_t> span_ids;
  for (const Span& s : run.spans) span_ids.insert(s.span_id);
  for (const Span& s : run.spans) {
    if (s.parent_span_id == 0) continue;
    EXPECT_TRUE(span_ids.count(s.parent_span_id) > 0)
        << s.name << " has dangling parent " << s.parent_span_id;
  }

  // The settlement annotation rides on the root span.
  for (const Span& s : run.spans) {
    if (s.name != "protocol.run") continue;
    bool found = false;
    for (const auto& [key, value] : s.args) {
      if (key == "settlement") {
        EXPECT_EQ(value, "disputed");
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(ProtocolTraceTest, ExportsAreByteIdenticalAcrossRuns) {
  TracedRun first = RunTracedDispute(/*seed=*/42);
  TracedRun second = RunTracedDispute(/*seed=*/42);
  EXPECT_EQ(first.trace_json, second.trace_json);
  EXPECT_EQ(first.chrome_json, second.chrome_json);
  EXPECT_GT(first.trace_json.size(), 1000u);
}

// Spans are recorded once, in the tracer's ring. The flight recorder keeps
// the run's other events, stamped with its trace id so a triage bundle
// still joins the trace export.
TEST(ProtocolTraceTest, FlightRecorderHoldsNoSpans) {
  obs::FlightRecorder recorder;
  obs::FlightRecorder* previous =
      obs::FlightRecorder::InstallGlobal(&recorder);
  TracedRun run = RunTracedDispute(/*seed=*/42);
  obs::FlightRecorder::InstallGlobal(previous);

  ASSERT_FALSE(run.spans.empty());
  EXPECT_TRUE(HasSpan(run.spans, "protocol.run"));
  EXPECT_TRUE(HasSpan(run.spans, "pool.admit"));
  uint64_t trace_id = run.spans.front().trace_id;

  std::vector<obs::FlightEvent> events = recorder.Snapshot();
  ASSERT_FALSE(events.empty());
  size_t span_events = 0;
  const obs::FlightEvent* settlement = nullptr;
  for (const obs::FlightEvent& event : events) {
    std::string kind = obs::FlightKindName(event.kind);
    if (kind.find("span") != std::string::npos || kind == "trace-event") {
      ++span_events;
    }
    if (event.kind == obs::FlightKind::kSettlement) settlement = &event;
  }
  EXPECT_EQ(span_events, 0u);
  ASSERT_NE(settlement, nullptr);
  EXPECT_EQ(settlement->trace_id, trace_id);
}

// A tracer outlives the protocol that bound it to a simulation. Once
// ~BettingProtocol has put obs::Clock back on wall time and the scheduler
// is gone, new spans must read that clock, never the dead scheduler.
TEST(ProtocolTraceTest, SpansFollowTheObsClockAfterTheProtocolIsGone) {
  Tracer tracer;
  Tracer* previous = Tracer::InstallGlobal(&tracer);
  {
    auto alice = secp256k1::PrivateKey::FromSeed("alice");
    auto bob = secp256k1::PrivateKey::FromSeed("bob");
    chain::Blockchain chain;
    chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
    chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
    core::MessageBus bus;
    contracts::OffchainConfig offchain;
    offchain.secret_alice = U256(0xa11ce);
    offchain.secret_bob = U256(0xb0b);
    offchain.reveal_iterations = 5;

    auto sched = std::make_unique<sim::Scheduler>();
    auto transport = std::make_unique<sim::SimTransport>(sched.get(), 42);
    sim::LinkConfig link;
    link.latency_ms = 50;
    transport->SetLink(alice.EthAddress().ToHex(), "chain", link);
    transport->SetLink(bob.EthAddress().ToHex(), "chain", link);
    auto protocol = std::make_unique<core::BettingProtocol>(
        &chain, &bus, alice, bob, offchain, contracts::Ether(1));
    protocol->BindSimulation(sched.get(), transport.get());
    core::Behavior honest;
    auto report = protocol->Run(honest, honest);
    Tracer::InstallGlobal(previous);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_GT(sched->NowMs(), 0u);
    protocol.reset();
    transport.reset();
    sched.reset();
  }
  ASSERT_FALSE(obs::Clock::IsVirtual());

  TraceContext root = tracer.StartTrace();
  const uint64_t before = obs::Clock::NowUs();
  tracer.Event(root, "after.unbind", "test");
  const uint64_t after = obs::Clock::NowUs();

  std::vector<Span> spans = tracer.Snapshot();
  auto it = std::find_if(spans.begin(), spans.end(), [](const Span& s) {
    return s.name == "after.unbind";
  });
  ASSERT_NE(it, spans.end());
  EXPECT_GE(it->start_us, before);
  EXPECT_LE(it->start_us, after);
}

TEST(ProtocolTraceTest, SampledOutRunProducesNoSpans) {
  TracerConfig config;
  config.sample_every = 1000;  // ordinal 1 % 1000 != 0 -> sampled out
  Tracer tracer(config);
  // Consume ordinal 0 (which IS sampled) so the protocol run lands on 1.
  ASSERT_TRUE(tracer.StartTrace().valid());
  tracer.Clear();
  Tracer* previous = Tracer::InstallGlobal(&tracer);

  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
  core::MessageBus bus;
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 5;
  core::BettingProtocol protocol(&chain, &bus, alice, bob, offchain,
                                 contracts::Ether(1));
  core::Behavior honest;
  auto report = protocol.Run(honest, honest);
  Tracer::InstallGlobal(previous);
  ASSERT_TRUE(report.ok());

  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.traces_sampled_out(), 1u);
}

}  // namespace
}  // namespace onoff::trace
