#include "onoff/protocol.h"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "trace/trace.h"

namespace onoff::core {

namespace {

constexpr char kSignedCopyTopic[] = "signed-copy";
// The transport endpoint name for the chain itself (the PoA producer a
// participant submits transactions to).
constexpr char kChainEndpoint[] = "chain";
// Approximate RLP transaction envelope overhead on the wire (nonce, gas
// fields, signature) added to the calldata size.
constexpr size_t kTxEnvelopeBytes = 110;
// Retransmission interval (virtual ms) for unacknowledged transactions: the
// sender cannot see in-flight losses, so it re-sends until its deadline.
constexpr uint64_t kTxRetryMs = 250;
// T1/T2/T3 of Table I, in seconds after "now" at Run().
constexpr uint64_t kT1Offset = 100;
constexpr uint64_t kT2Offset = 200;
constexpr uint64_t kT3Offset = 300;

// A transaction in flight through the simulated network.
struct PendingCall {
  bool done = false;
  // Set when the driver gives up at a deadline: a straggler delivery event
  // still queued in the scheduler must not execute the transaction.
  bool cancelled = false;
  std::optional<Result<chain::Receipt>> result;
};

bool IsDeadlineMiss(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition;
}

// Observes each stage's wall time into the process-global registry as the
// driver moves past it (or unwinds through an early settlement), and — when
// the run is traced — mirrors each stage as a span whose context becomes the
// ambient parent for the stage's transactions and messages.
class StageSpans {
 public:
  StageSpans() = default;
  StageSpans(const StageSpans&) = delete;
  StageSpans& operator=(const StageSpans&) = delete;
  ~StageSpans() { Close(); }

  void Enter(Stage stage) {
    Close();
    active_ = true;
    stage_ = stage;
    start_ = std::chrono::steady_clock::now();
    if (trace::Tracer* tracer = trace::Tracer::Global()) {
      span_.emplace(tracer, trace::CurrentContext(),
                    std::string("stage.") + StageName(stage), "protocol");
      ambient_.emplace(span_->context());
    }
  }

 private:
  void Close() {
    if (!active_) return;
    active_ = false;
    // LIFO: pop the ambient context before ending the span it points at.
    ambient_.reset();
    span_.reset();
    obs::Histogram* h = obs::GetHistogramOrNull(
        std::string("protocol.stage_us.") + StageName(stage_),
        obs::DefaultTimeBucketsUs());
    if (h != nullptr) {
      h->Observe(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
    }
  }

  bool active_ = false;
  Stage stage_ = Stage::kSplitGenerate;
  std::chrono::steady_clock::time_point start_;
  std::optional<trace::ScopedSpan> span_;
  std::optional<trace::ScopedContext> ambient_;
};

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kSplitGenerate:
      return "split/generate";
    case Stage::kDeploySign:
      return "deploy/sign";
    case Stage::kSubmitChallenge:
      return "submit/challenge";
    case Stage::kDisputeResolve:
      return "dispute/resolve";
  }
  return "unknown";
}

const char* SettlementName(Settlement settlement) {
  switch (settlement) {
    case Settlement::kAbortedUnsigned:
      return "aborted-unsigned";
    case Settlement::kAbortedTampered:
      return "aborted-tampered";
    case Settlement::kRefunded:
      return "refunded";
    case Settlement::kOptimistic:
      return "optimistic";
    case Settlement::kDisputed:
      return "disputed";
    case Settlement::kDisputeTimedOut:
      return "dispute-timed-out";
  }
  return "unknown";
}

BettingProtocol::BettingProtocol(chain::Blockchain* chain, MessageBus* bus,
                                 secp256k1::PrivateKey alice,
                                 secp256k1::PrivateKey bob,
                                 contracts::OffchainConfig offchain_template,
                                 U256 deposit_amount, ProtocolTiming timing)
    : chain_(chain),
      bus_(bus),
      alice_(std::move(alice)),
      bob_(std::move(bob)),
      offchain_(std::move(offchain_template)),
      deposit_amount_(deposit_amount),
      timing_(timing) {
  offchain_.alice = alice_.EthAddress();
  offchain_.bob = bob_.EthAddress();
}

void BettingProtocol::BindSimulation(sim::Scheduler* scheduler,
                                     sim::SimTransport* transport) {
  // Both or neither: a scheduler without a transport (or vice versa) has no
  // meaningful semantics.
  sched_ = transport != nullptr ? scheduler : nullptr;
  transport_ = scheduler != nullptr ? transport : nullptr;
  // Off-chain messages ride the same simulated network as transactions.
  bus_->SetTransport(transport_);
  // The shared observability clock follows the binding, so spans,
  // ScopedTimer latencies, flight-recorder timestamps and time-series sample
  // times all read simulated time — never a mix of wall and virtual — and
  // two runs with the same seed export byte-identical traces.
  if (sched_ != nullptr) {
    obs::Clock::Install([sched = sched_] { return sched->NowMs() * 1000; });
  } else {
    obs::Clock::Install(nullptr);
  }
}

BettingProtocol::~BettingProtocol() {
  if (sched_ != nullptr) obs::Clock::Install(nullptr);
}

uint64_t BettingProtocol::VirtualMs(uint64_t unix_ts) const {
  uint64_t offset_s = unix_ts > run_start_ts_ ? unix_ts - run_start_ts_ : 0;
  return base_virtual_ms_ + offset_s * 1000;
}

void BettingProtocol::AdvanceChainTo(uint64_t unix_ts) {
  if (sched_ != nullptr) sched_->RunUntil(VirtualMs(unix_ts));
  chain_->AdvanceTimeTo(unix_ts);
}

Result<chain::Receipt> BettingProtocol::ExecuteViaSim(
    const secp256k1::PrivateKey& from, std::optional<Address> to,
    const U256& value, Bytes data, uint64_t gas_limit, uint64_t deadline_ms) {
  auto call = std::make_shared<PendingCall>();
  const size_t wire_bytes = data.size() + kTxEnvelopeBytes;
  const std::string sender = from.EthAddress().ToHex();
  // Retransmit until delivered or the deadline passes: the sender cannot
  // observe in-flight losses, so it re-sends on a timer. The first delivery
  // that lands executes the transaction; `done` de-duplicates later copies
  // (the pool would reject the duplicate nonce anyway). The retry events
  // hold only a weak reference so abandoning the call frees everything.
  auto attempt = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_attempt = attempt;
  // The submitter's ambient trace context, captured now because both the
  // retry timer and the delivery callback run from the scheduler with an
  // empty thread-local stack. Re-pushed around Execute so the chain links
  // the mined transaction back to this protocol run.
  trace::Tracer* tracer = trace::Tracer::Global();
  trace::TraceContext submit_ctx =
      tracer != nullptr ? trace::CurrentContext() : trace::TraceContext{};
  auto attempts = std::make_shared<int>(0);
  *attempt = [this, call, weak_attempt, sender, from, to, value,
              data = std::move(data), gas_limit, wire_bytes, deadline_ms,
              tracer, submit_ctx, attempts] {
    if (call->done || call->cancelled) return;
    if (++*attempts > 1 && tracer != nullptr) {
      tracer->Event(submit_ctx, "tx.retransmit", "protocol",
                    {{"attempt", std::to_string(*attempts)},
                     {"from", sender}});
    }
    transport_->Deliver(
        sender, kChainEndpoint, wire_bytes,
        [this, call, from, to, value, data, gas_limit, submit_ctx] {
          if (call->done || call->cancelled) return;
          trace::ScopedContext ambient(submit_ctx);
          // Block timestamps follow the virtual clock: the chain's time is
          // pulled up to the delivery instant before the transaction mines.
          chain_->AdvanceTimeTo(run_start_ts_ +
                                (sched_->NowMs() - base_virtual_ms_) / 1000);
          call->result = chain_->Execute(from, to, value, data, gas_limit);
          call->done = true;
        });
    uint64_t next = sched_->NowMs() + kTxRetryMs;
    if (next < deadline_ms) {
      sched_->ScheduleAt(next, [weak_attempt] {
        if (auto fn = weak_attempt.lock()) (*fn)();
      });
    }
  };
  (*attempt)();
  sched_->RunUntil(deadline_ms, [call] { return call->done; });
  if (!call->done) {
    call->cancelled = true;
    if (tracer != nullptr) {
      tracer->Event(submit_ctx, "tx.deadline_miss", "protocol",
                    {{"deadline_ms", std::to_string(deadline_ms)},
                     {"from", sender}});
    }
    return Status::FailedPrecondition(
        "transaction from " + sender + " missed its deadline (virtual t=" +
        std::to_string(deadline_ms) + "ms)");
  }
  return *call->result;
}

Result<chain::Receipt> BettingProtocol::Transact(
    const secp256k1::PrivateKey& from, std::optional<Address> to,
    const U256& value, Bytes data, uint64_t gas_limit, Stage stage,
    uint64_t deadline_ms) {
  size_t data_size = data.size();
  Result<chain::Receipt> receipt =
      sched_ == nullptr
          ? chain_->Execute(from, to, value, std::move(data), gas_limit)
          : ExecuteViaSim(from, to, value, std::move(data), gas_limit,
                          deadline_ms);
  if (!receipt.ok()) return receipt;
  StageReport& ledger = StageOf(stage);
  ledger.gas_used += receipt->gas_used;
  ledger.onchain_bytes += data_size;
  ++ledger.transactions;
  return receipt;
}

Result<ProtocolReport> BettingProtocol::Run(const Behavior& alice_behavior,
                                            const Behavior& bob_behavior) {
  stages_ = {};
  // Root of the causal trace: everything this run touches — off-chain
  // messages, network hops, pool admission, block inclusion, EVM frames —
  // inherits this context and shares one trace id.
  trace::Tracer* tracer = trace::Tracer::Global();
  trace::TraceContext root_ctx;
  if (tracer != nullptr) root_ctx = tracer->StartTrace();
  trace::ScopedSpan run_span(tracer, root_ctx, "protocol.run", "protocol");
  trace::ScopedContext ambient(run_span.context());
  ONOFF_ASSIGN_OR_RETURN(ProtocolReport report,
                         RunImpl(alice_behavior, bob_behavior));
  if (tracer != nullptr) {
    tracer->Event(run_span.context(), "protocol.settled", "protocol",
                  {{"settlement", SettlementName(report.settlement)}});
  }
  // Every path — aborts, refunds, optimistic, disputed — funnels through
  // here, so the report's stages are complete wherever RunImpl settled.
  report.stages = stages_;
  run_span.AddArg("settlement", SettlementName(report.settlement));
  run_span.AddArg("gas_used", std::to_string(report.TotalGas()));
  // Settlement boundary: hand the terminal facts to the chain's invariant
  // auditor (double-settlement / payout / dispute-window checks) and stamp
  // the flight recorder.
  if (chain::ChainAuditor* auditor = chain_->auditor()) {
    chain::SettlementAudit audit;
    audit.game = report.onchain_contract;
    audit.settlement = SettlementName(report.settlement);
    audit.resolved =
        report.settlement == Settlement::kOptimistic ||
        (report.settlement == Settlement::kDisputed &&
         !report.verified_instance.IsZero());
    audit.correct_payout = report.correct_payout;
    audit.trace_id = run_span.context().trace_id;
    if (sched_ != nullptr) {
      audit.t3_ms = VirtualMs(run_start_ts_ + kT3Offset);
      audit.settled_ms = sched_->NowMs();
      audit.challenge_period_ms = timing_.challenge_period_ms;
    }
    auditor->OnSettlement(audit);
  }
  obs::FlightRecord(obs::FlightKind::kSettlement,
                    run_span.context().trace_id, report.TotalGas(), 0,
                    SettlementName(report.settlement));
  // Mirror run totals into the global registry (no-ops when disabled).
  if (obs::Registry* g = obs::Registry::Global()) {
    g->GetCounter("protocol.runs")->Inc();
    g->GetCounter(std::string("protocol.settlement.") +
                  SettlementName(report.settlement))
        ->Inc();
    g->GetCounter("protocol.gas_used")->Inc(report.TotalGas());
    g->GetCounter("protocol.onchain_bytes")->Inc(report.TotalOnchainBytes());
    g->GetCounter("protocol.private_bytes_revealed")
        ->Inc(report.private_bytes_revealed);
  }
  return report;
}

Result<ProtocolReport> BettingProtocol::RunImpl(const Behavior& alice_behavior,
                                                const Behavior& bob_behavior) {
  ProtocolReport report;
  StageSpans spans;
  uint64_t now = chain_->Now();
  run_start_ts_ = now;
  base_virtual_ms_ = sched_ != nullptr ? sched_->NowMs() : 0;

  contracts::BettingConfig betting;
  betting.alice = alice_.EthAddress();
  betting.bob = bob_.EthAddress();
  betting.deposit_amount = deposit_amount_;
  betting.t1 = now + kT1Offset;
  betting.t2 = now + kT2Offset;
  betting.t3 = now + kT3Offset;

  // ---- Stage 1: split/generate ----
  spans.Enter(Stage::kSplitGenerate);
  ONOFF_ASSIGN_OR_RETURN(Bytes onchain_init,
                         contracts::BuildOnChainInit(betting));
  ONOFF_ASSIGN_OR_RETURN(Bytes offchain_init,
                         contracts::BuildOffChainInit(offchain_));
  // Generation is purely local: no gas, no messages.

  // ---- Stage 2: deploy/sign ----
  spans.Enter(Stage::kDeploySign);
  // Rule 1: Alice deploys the on-chain contract before T0.
  ONOFF_ASSIGN_OR_RETURN(chain::Receipt deploy_receipt,
                         Transact(alice_, std::nullopt, U256(), onchain_init,
                                  4'000'000, Stage::kDeploySign,
                                  VirtualMs(betting.t1)));
  if (!deploy_receipt.success || deploy_receipt.contract_address.IsZero()) {
    return Status::Internal("on-chain contract deployment failed");
  }
  Address onchain = deploy_receipt.contract_address;
  report.onchain_contract = onchain;
  StageOf(Stage::kDeploySign).onchain_bytes += chain_->GetCode(onchain).size();

  // Both participants must hold a fully signed copy before any deposit.
  // Each signs their own locally generated copy and broadcasts it over the
  // Whisper-like bus; each then RECEIVES the counterparty's message and
  // verifies (a) the bytecode matches their own deterministic compilation
  // and (b) the attached signature is genuine. Any drop, tamper or refusal
  // aborts the game before money moves (incentive safety).
  size_t msgs_before = bus_->messages_sent();
  size_t bytes_before = bus_->bytes_sent();
  std::vector<Address> participants = {alice_.EthAddress(), bob_.EthAddress()};
  bool signing_ok = true;
  if (alice_behavior.sign_offchain_copy) {
    SignedCopy mine(offchain_init);
    // An audit rejection means an honest participant refuses to endorse the
    // bytecode — the game aborts unsigned, exactly like an explicit refusal.
    if (mine.AddSignature(alice_).ok()) {
      bus_->Broadcast(alice_.EthAddress(), participants, kSignedCopyTopic,
                      mine.Serialize());
    } else {
      signing_ok = false;
    }
  } else {
    signing_ok = false;
  }
  if (bob_behavior.sign_offchain_copy) {
    SignedCopy mine(offchain_init);
    if (mine.AddSignature(bob_).ok()) {
      bus_->Broadcast(bob_.EthAddress(), participants, kSignedCopyTopic,
                      mine.Serialize());
    } else {
      signing_ok = false;
    }
  } else {
    signing_ok = false;
  }
  StageOf(Stage::kDeploySign).offchain_messages +=
      bus_->messages_sent() - msgs_before;
  StageOf(Stage::kDeploySign).offchain_bytes +=
      bus_->bytes_sent() - bytes_before;

  if (!signing_ok) {
    report.settlement = Settlement::kAbortedUnsigned;
    report.correct_payout = true;  // nobody lost anything
    return report;
  }

  // Sim-bound: wait for the signed copies to cross the wire (or for T1 to
  // pass — a dropped copy aborts the game below, before any money moves).
  if (sched_ != nullptr) {
    sched_->RunUntil(VirtualMs(betting.t1), [this] {
      return bus_->PendingFor(alice_.EthAddress()) > 0 &&
             bus_->PendingFor(bob_.EthAddress()) > 0;
    });
  }

  // Receive + verify the counterparty's signature; assemble the full copy.
  SignedCopy copy(offchain_init);
  auto ingest = [&](const secp256k1::PrivateKey& me,
                    const Address& from) -> bool {
    auto msg = bus_->Receive(me.EthAddress(), kSignedCopyTopic);
    if (!msg.ok()) return false;  // dropped in flight
    auto received = SignedCopy::Deserialize(msg->payload);
    if (!received.ok()) return false;  // mangled in flight
    // The counterparty must have signed EXACTLY my compilation output
    // ("all the participants should use the same version of compiler").
    if (received->bytecode() != offchain_init) return false;
    if (!received->VerifyComplete({from}).ok()) return false;
    auto sig = received->SignatureOf(from);
    copy.AttachSignature(from, *sig);
    return true;
  };
  // Each ingest attaches the counterparty's signature, so after both the
  // copy carries the two signatures made (and audited) above.
  bool alice_ok = ingest(alice_, bob_.EthAddress());
  bool bob_ok = ingest(bob_, alice_.EthAddress());
  if (!alice_ok || !bob_ok || !copy.VerifyComplete(participants).ok()) {
    report.settlement = Settlement::kAbortedTampered;
    report.correct_payout = true;  // aborted before any deposit
    return report;
  }

  // ---- Stage 3: submit/challenge (deposits + off-chain execution) ----
  spans.Enter(Stage::kSubmitChallenge);
  bool alice_deposited = false;
  bool bob_deposited = false;
  // A deposit that misses the T1 window on the simulated network is simply
  // a missing deposit (the refund rules below apply); every other failure
  // is a real error.
  auto deposit = [&](const secp256k1::PrivateKey& who,
                     bool* deposited) -> Status {
    Result<chain::Receipt> r =
        Transact(who, onchain, deposit_amount_, contracts::DepositCalldata(),
                 300'000, Stage::kSubmitChallenge, VirtualMs(betting.t1));
    if (r.ok()) {
      *deposited = r->success;
      return Status::OK();
    }
    if (sched_ != nullptr && IsDeadlineMiss(r.status())) return Status::OK();
    return r.status();
  };
  if (alice_behavior.make_deposit) {
    ONOFF_RETURN_NOT_OK(deposit(alice_, &alice_deposited));
  }
  if (bob_behavior.make_deposit) {
    ONOFF_RETURN_NOT_OK(deposit(bob_, &bob_deposited));
  }

  if (!alice_deposited || !bob_deposited) {
    // Rule 2/3: whoever deposited takes a refund (round one before T1 or
    // round two between T1 and T2).
    AdvanceChainTo(betting.t1);
    if (alice_deposited) {
      ONOFF_RETURN_NOT_OK(Transact(alice_, onchain, U256(),
                                   contracts::RefundRoundTwoCalldata(),
                                   300'000, Stage::kSubmitChallenge,
                                   VirtualMs(betting.t2))
                              .status());
    }
    if (bob_deposited) {
      ONOFF_RETURN_NOT_OK(Transact(bob_, onchain, U256(),
                                   contracts::RefundRoundTwoCalldata(),
                                   300'000, Stage::kSubmitChallenge,
                                   VirtualMs(betting.t2))
                              .status());
    }
    report.settlement = Settlement::kRefunded;
    report.correct_payout = true;
    return report;
  }

  // Rule 4: after T2 both participants execute the off-chain contract
  // locally (each on their own private EVM) and reach unanimous agreement.
  AdvanceChainTo(betting.t2);
  auto run_locally = [&](const secp256k1::PrivateKey& who) -> Result<bool> {
    chain::Blockchain local;  // private local chain, never published
    local.FundAccount(who.EthAddress(), contracts::Ether(1));
    ONOFF_ASSIGN_OR_RETURN(
        chain::Receipt r,
        local.Execute(who, std::nullopt, U256(), copy.bytecode(), 4'000'000));
    if (!r.success) return Status::Internal("local off-chain deploy failed");
    auto res = local.CallReadOnly(who.EthAddress(), r.contract_address,
                                  contracts::GetWinnerCalldata());
    if (!res.ok()) return Status::Internal("local off-chain execution failed");
    return !U256::FromBigEndianTruncating(res.output).IsZero();
  };
  ONOFF_ASSIGN_OR_RETURN(bool alice_view, run_locally(alice_));
  ONOFF_ASSIGN_OR_RETURN(bool bob_view, run_locally(bob_));
  if (alice_view != bob_view) {
    return Status::Internal("honest local executions diverged");
  }
  report.bob_won = bob_view;

  const secp256k1::PrivateKey& loser = report.bob_won ? alice_ : bob_;
  const secp256k1::PrivateKey& winner = report.bob_won ? bob_ : alice_;
  const Behavior& loser_behavior =
      report.bob_won ? alice_behavior : bob_behavior;

  U256 winner_before = chain_->GetBalance(winner.EthAddress());

  bool reassigned = false;
  if (loser_behavior.admit_loss) {
    // Optimistic path: the loser calls reassign() before T3.
    Result<chain::Receipt> r =
        Transact(loser, onchain, U256(), contracts::ReassignCalldata(),
                 300'000, Stage::kSubmitChallenge, VirtualMs(betting.t3));
    if (r.ok() && r->success) {
      reassigned = true;
    } else if (sched_ == nullptr) {
      if (!r.ok()) return r.status();
      return Status::Internal("reassign unexpectedly failed");
    }
    // Sim-bound and not reassigned: the admission was dropped or delivered
    // after T3 (the contract's time guard reverted it) — the protocol now
    // plays out exactly as if the loser had gone silent.
  }
  if (reassigned) {
    report.settlement = Settlement::kOptimistic;
    report.private_bytes_revealed = 0;
    U256 winner_after = chain_->GetBalance(winner.EthAddress());
    report.correct_payout =
        winner_after == winner_before + deposit_amount_ * U256(2);
    return report;
  }

  // ---- Stage 4: dispute/resolve ----
  spans.Enter(Stage::kDisputeResolve);
  AdvanceChainTo(betting.t3);
  uint64_t dispute_open_ms = sched_ != nullptr ? sched_->NowMs() : 0;
  // The challenge period: the winner's window to reach the chain.
  uint64_t dispute_deadline_ms =
      VirtualMs(betting.t3) + timing_.challenge_period_ms;
  // Rule 5: the winner reveals the signed copy on-chain.
  ONOFF_ASSIGN_OR_RETURN(secp256k1::Signature sig_a,
                         copy.SignatureOf(alice_.EthAddress()));
  ONOFF_ASSIGN_OR_RETURN(secp256k1::Signature sig_b,
                         copy.SignatureOf(bob_.EthAddress()));
  Bytes dispute_calldata = contracts::DeployVerifiedInstanceCalldata(
      copy.bytecode(), sig_a.v, sig_a.r, sig_a.s, sig_b.v, sig_b.r, sig_b.s);
  report.private_bytes_revealed = dispute_calldata.size();
  Result<chain::Receipt> deploy_r =
      Transact(winner, onchain, U256(), std::move(dispute_calldata),
               6'000'000, Stage::kDisputeResolve, dispute_deadline_ms);
  if (!deploy_r.ok() || !deploy_r->success) {
    if (sched_ != nullptr && !deploy_r.ok() &&
        IsDeadlineMiss(deploy_r.status())) {
      // The reveal never reached the chain: nothing became public.
      report.private_bytes_revealed = 0;
      report.settlement = Settlement::kDisputeTimedOut;
      report.correct_payout = false;
      return report;
    }
    if (!deploy_r.ok()) return deploy_r.status();
    return Status::Internal("deployVerifiedInstance failed");
  }
  Address instance = Address::FromWord(chain_->GetStorage(
      onchain, U256(contracts::betting_slots::kDeployedAddr)));
  report.verified_instance = instance;
  StageOf(Stage::kDisputeResolve).onchain_bytes +=
      chain_->GetCode(instance).size();

  Result<chain::Receipt> resolve_r =
      Transact(winner, instance, U256(),
               contracts::ReturnDisputeResolutionCalldata(onchain), 6'000'000,
               Stage::kDisputeResolve, dispute_deadline_ms);
  if (!resolve_r.ok() || !resolve_r->success) {
    if (sched_ != nullptr && !resolve_r.ok() &&
        IsDeadlineMiss(resolve_r.status())) {
      // The instance is deployed (bytecode revealed) but the resolution
      // never landed inside the window: the pot stays locked.
      report.settlement = Settlement::kDisputeTimedOut;
      report.correct_payout = false;
      return report;
    }
    if (!resolve_r.ok()) return resolve_r.status();
    return Status::Internal("returnDisputeResolution failed");
  }

  report.settlement = Settlement::kDisputed;
  if (sched_ != nullptr) report.dispute_ms = sched_->NowMs() - dispute_open_ms;
  U256 winner_after = chain_->GetBalance(winner.EthAddress());
  U256 spent(deploy_r->gas_used + resolve_r->gas_used);
  report.correct_payout =
      winner_after + spent == winner_before + deposit_amount_ * U256(2);
  return report;
}

}  // namespace onoff::core
