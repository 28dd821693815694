// The four-stage hybrid-on/off-chain protocol driver for the paper's betting
// example (Table I / Fig. 2):
//
//   1. split/generate   — produce the on-chain and off-chain contracts
//   2. deploy/sign      — deploy on-chain; exchange signed copies off-chain
//   3. submit/challenge — deposits, local off-chain execution, optimistic
//                         settlement via reassign()
//   4. dispute/resolve  — deployVerifiedInstance + returnDisputeResolution
//                         when a dishonest loser goes silent
//
// Each participant is an agent with a wallet and a behaviour profile;
// dishonest behaviours (refusing to sign, refusing to deposit, refusing to
// admit a loss) force the protocol down the corresponding paths. The driver
// records per-stage gas, on-chain bytes and off-chain message traffic — the
// quantities the evaluation section reports — in a plain per-run ledger it
// copies into the report's StageReport array, so the reported numbers are
// deterministic even when process-global metrics are disabled.

#ifndef ONOFFCHAIN_ONOFF_PROTOCOL_H_
#define ONOFFCHAIN_ONOFF_PROTOCOL_H_

#include <array>
#include <optional>
#include <string>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "crypto/secp256k1.h"
#include "onoff/message_bus.h"
#include "onoff/signed_copy.h"
#include "sim/scheduler.h"
#include "sim/transport.h"
#include "support/status.h"

namespace onoff::core {

enum class Stage {
  kSplitGenerate = 0,
  kDeploySign = 1,
  kSubmitChallenge = 2,
  kDisputeResolve = 3,
};
inline constexpr int kNumStages = 4;

const char* StageName(Stage stage);

// How one participant behaves during the protocol.
struct Behavior {
  bool sign_offchain_copy = true;
  bool make_deposit = true;
  // Loser honesty: call reassign() before T3 when losing.
  bool admit_loss = true;
};

struct StageReport {
  uint64_t gas_used = 0;        // miner gas consumed during this stage
  size_t onchain_bytes = 0;     // calldata + deployed code pushed on-chain
  size_t offchain_messages = 0;
  size_t offchain_bytes = 0;
  int transactions = 0;
};

// How the run ended.
enum class Settlement {
  kAbortedUnsigned,   // a participant refused to sign: no on-chain activity
  kAbortedTampered,   // a received signed copy failed verification (bad
                      // channel or forgery): aborted before deposits
  kRefunded,          // deposits returned via refundRoundOne/Two
  kOptimistic,        // loser called reassign(); off-chain content stayed private
  kDisputed,          // winner forced resolution via the verified instance
  kDisputeTimedOut,   // sim-bound runs only: the winner's dispute
                      // transactions did not reach the chain within the
                      // challenge period (latency/loss/partition) — the pot
                      // stays locked, the paper's liveness assumption broken
};

const char* SettlementName(Settlement settlement);

struct ProtocolReport {
  Settlement settlement = Settlement::kAbortedUnsigned;
  bool bob_won = false;
  // True iff the pot ended up with the rightful winner.
  bool correct_payout = false;
  std::array<StageReport, kNumStages> stages;
  // Bytes of the off-chain contract that became public on-chain (0 on the
  // optimistic path — the privacy headline).
  size_t private_bytes_revealed = 0;
  Address onchain_contract;
  Address verified_instance;
  // Sim-bound runs only: virtual ms from the T3 deadline until dispute
  // resolution completed (0 when no dispute ran or the run was unbound).
  uint64_t dispute_ms = 0;

  uint64_t TotalGas() const {
    uint64_t total = 0;
    for (const auto& s : stages) total += s.gas_used;
    return total;
  }
  size_t TotalOnchainBytes() const {
    size_t total = 0;
    for (const auto& s : stages) total += s.onchain_bytes;
    return total;
  }
};

// T1/T2/T3 of Table I sit 100, 200 and 300 s after "now" at Run().
struct ProtocolTiming {
  // Sim-bound runs only. The challenge period: how long (virtual ms) past
  // T3 the winner's dispute transactions may take to reach the chain before
  // the run is declared lost (kDisputeTimedOut). The paper assumes this
  // window always suffices; the simulator makes it a measured quantity.
  uint64_t challenge_period_ms = 60'000;
};

class BettingProtocol {
 public:
  BettingProtocol(chain::Blockchain* chain, MessageBus* bus,
                  secp256k1::PrivateKey alice, secp256k1::PrivateKey bob,
                  contracts::OffchainConfig offchain_template,
                  U256 deposit_amount, ProtocolTiming timing = {});
  // Restores the wall obs::Clock when this protocol installed a virtual one.
  ~BettingProtocol();

  // Binds the run to simulated time: participant→chain transactions travel
  // through `transport` (endpoints: the participant's address hex → the
  // reserved name "chain"), T1..T3 become deadlines on the virtual clock,
  // and block timestamps follow it. A transaction that cannot reach the
  // chain inside its rule's window plays out exactly as if the sender had
  // gone silent: a late reassign() escalates to the dispute path, a late
  // dispute settles kDisputeTimedOut. Pass nullptrs to restore the
  // synchronous behaviour. The scheduler's clock zero is mapped to the
  // chain's Now() when Run() starts.
  void BindSimulation(sim::Scheduler* scheduler, sim::SimTransport* transport);

  // Executes the whole lifecycle under the given behaviours.
  Result<ProtocolReport> Run(const Behavior& alice_behavior,
                             const Behavior& bob_behavior);

 private:
  // The protocol lifecycle; stage stats accumulate in stages_ and are
  // copied into the report by Run().
  Result<ProtocolReport> RunImpl(const Behavior& alice_behavior,
                                 const Behavior& bob_behavior);

  // Sends a transaction (nullopt `to` = contract creation) and accumulates
  // its stats under `stage` in stages_. Unbound, `deadline_ms` is
  // ignored; sim-bound, the transaction travels through the transport with
  // retransmission until the absolute virtual-time deadline, and missing it
  // returns StatusCode::kFailedPrecondition.
  Result<chain::Receipt> Transact(const secp256k1::PrivateKey& from,
                                  std::optional<Address> to,
                                  const U256& value, Bytes data,
                                  uint64_t gas_limit, Stage stage,
                                  uint64_t deadline_ms = 0);

  // Sim-bound transaction submission (see Transact).
  Result<chain::Receipt> ExecuteViaSim(const secp256k1::PrivateKey& from,
                                       std::optional<Address> to,
                                       const U256& value, Bytes data,
                                       uint64_t gas_limit,
                                       uint64_t deadline_ms);

  // Maps a chain timestamp (unix seconds) to absolute virtual ms.
  uint64_t VirtualMs(uint64_t unix_ts) const;
  // Waits out the virtual clock to `unix_ts` (delivering whatever is in
  // flight) and advances the chain clock to match.
  void AdvanceChainTo(uint64_t unix_ts);

  StageReport& StageOf(Stage stage) {
    return stages_[static_cast<size_t>(stage)];
  }

  chain::Blockchain* chain_;
  MessageBus* bus_;
  secp256k1::PrivateKey alice_;
  secp256k1::PrivateKey bob_;
  contracts::OffchainConfig offchain_;
  U256 deposit_amount_;
  ProtocolTiming timing_;
  // Per-run stage ledger, reset at the top of every Run().
  std::array<StageReport, kNumStages> stages_;
  // Simulation binding (nullptr = synchronous).
  sim::Scheduler* sched_ = nullptr;
  sim::SimTransport* transport_ = nullptr;
  // Mapping between chain unix seconds and the virtual clock, fixed at the
  // top of RunImpl so one protocol instance can run on a reused scheduler.
  uint64_t run_start_ts_ = 0;
  uint64_t base_virtual_ms_ = 0;
};

}  // namespace onoff::core

#endif  // ONOFFCHAIN_ONOFF_PROTOCOL_H_
