#include "generator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "contracts/betting.h"
#include "contracts/codegen.h"
#include "easm/assembler.h"
#include "evm/evm.h"

namespace perfbench {

using namespace onoff;

namespace {

// Gas limits. Every block the planner builds must fit its gas budget with
// all of its transactions, or the pool defers some and the betting
// instances miss their time windows; so the limits sit close above what
// each call measures (deploy ≈ 408 k, deployVerifiedInstance ≈ 190 k).
constexpr uint64_t kDeployGas = 600'000;
constexpr uint64_t kCallGas = 120'000;    // deposit(), reassign()
constexpr uint64_t kRevealGas = 400'000;  // deployVerifiedInstance(...)
constexpr uint64_t kResolveGas = 300'000;  // returnDisputeResolution(...)
constexpr uint64_t kTransferGas = 21'000;
constexpr uint64_t kLoopCallGas = 120'000;
constexpr uint64_t kSetupDeployGas = 200'000;

// One independent random stream per purpose, so that, say, drawing more
// traffic never shifts the betting secrets.
constexpr uint64_t kSecretStream = 0x5ec2e75ULL;
constexpr uint64_t kDisputeStream = 0xd15b07e5ULL;
constexpr uint64_t kTrafficStream = 0x7aff1cULL;

// ~100 k gas per call: 2 600 turns of a 29-gas loop (≈ 75 k gas) on top of
// the 21 k intrinsic gas and one SSTORE. `tail` runs after the loop with
// the counter on the stack.
constexpr char kLoop[] = R"(
  PUSH1 0x00
  loop: JUMPDEST
  PUSH1 0x01 ADD
  DUP1 PUSH2 0x0a28 GT
  PUSH @loop JUMPI
)";
// Per-sender contract: writes only its own slot, so calls never conflict.
constexpr char kOwnTail[] = "PUSH1 0x00 SSTORE STOP\n";
// Shared counter: every call reads and writes slot 0 of one contract.
constexpr char kSharedTail[] =
    "POP PUSH1 0x00 SLOAD PUSH1 0x01 ADD PUSH1 0x00 SSTORE STOP\n";

Result<Bytes> LoopContractInit(const char* tail) {
  ONOFF_ASSIGN_OR_RETURN(Bytes runtime,
                         easm::Assemble(std::string(kLoop) + tail));
  return contracts::WrapDeployer(runtime);
}

std::string Label(uint64_t seed, const char* role, uint64_t index) {
  return "perfbench/" + std::to_string(seed) + "/" + role + "/" +
         std::to_string(index);
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

DisputePattern::DisputePattern(uint64_t seed) : rng_(seed ^ kDisputeStream) {}

bool DisputePattern::Next() {
  if (index_ % 5 == 0) offset_ = rng_.Below(5);
  return index_++ % 5 == offset_;
}

secp256k1::PrivateKey DeriveKey(uint64_t seed, const char* role,
                                uint64_t index) {
  return secp256k1::PrivateKey::FromSeed(Label(seed, role, index));
}

Address DeriveAddress(uint64_t seed, const char* role, uint64_t index) {
  std::string label = Label(seed, role, index);
  Hash32 h = Keccak256(
      BytesView(reinterpret_cast<const uint8_t*>(label.data()), label.size()));
  return *Address::FromBytes(BytesView(h.data() + 12, Address::kSize));
}

WireTx SignTx(const secp256k1::PrivateKey& key, uint64_t nonce,
              std::optional<Address> to, const U256& value, Bytes data,
              uint64_t gas_limit) {
  chain::Transaction tx;
  tx.nonce = nonce;
  tx.gas_price = U256(1);
  tx.gas_limit = gas_limit;
  tx.to = to;
  tx.value = value;
  tx.data = std::move(data);
  tx.Sign(key);
  WireTx wire;
  wire.rlp = tx.Encode();
  wire.hash = tx.Hash();
  wire.gas_limit = gas_limit;
  wire.calldata_bytes = tx.data.size();
  return wire;
}

// ---- BettingPlanner ----

BettingPlanner::BettingPlanner(uint64_t seed, uint64_t reveal_iterations)
    : seed_(seed),
      reveal_iterations_(reveal_iterations),
      secrets_(seed ^ kSecretStream),
      disputes_(seed) {}

U256 BettingPlanner::Deposit() { return contracts::Ether(1); }
U256 BettingPlanner::ParticipantFunds() { return contracts::Ether(10); }

void BettingPlanner::Anchor(uint64_t height, uint64_t timestamp,
                            uint64_t interval) {
  first_height_ = height;
  first_timestamp_ = timestamp;
  interval_ = interval;
}

uint64_t BettingPlanner::TimestampOf(uint64_t height) const {
  return first_timestamp_ + (height - first_height_) * interval_;
}

Status BettingPlanner::Start(uint64_t height) {
  const uint64_t index = instances_.size();
  secp256k1::PrivateKey alice = DeriveKey(seed_, "alice", index);
  secp256k1::PrivateKey bob = DeriveKey(seed_, "bob", index);
  Instance in;
  in.alice = alice.EthAddress();
  in.bob = bob.EthAddress();
  in.dispute = disputes_.Next();
  in.start_height = height;
  in.end_height = height + (in.dispute ? 4 : 2);

  contracts::BettingConfig bet;
  bet.alice = in.alice;
  bet.bob = in.bob;
  bet.deposit_amount = Deposit();
  bet.t1 = TimestampOf(height + 1) + 1;
  bet.t2 = TimestampOf(height + 2);
  bet.t3 = TimestampOf(height + 3);
  contracts::OffchainConfig off;
  off.alice = in.alice;
  off.bob = in.bob;
  off.secret_alice = U256(secrets_.Next());
  off.secret_bob = U256(secrets_.Next());
  off.reveal_iterations = reveal_iterations_;
  in.bob_wins = contracts::ComputeWinner(off);
  ONOFF_ASSIGN_OR_RETURN(Bytes onchain_init, contracts::BuildOnChainInit(bet));
  in.onchain = evm::Evm::ContractAddress(in.alice, 0);
  // A contract's own nonce starts at 1 (EIP-161).
  in.verified = evm::Evm::ContractAddress(in.onchain, 1);

  auto plan = [&](uint64_t h, const secp256k1::PrivateKey& key,
                  uint64_t nonce, std::optional<Address> to,
                  const U256& value, Bytes data, uint64_t gas,
                  std::vector<Hash32>* owner) {
    WireTx wire = SignTx(key, nonce, to, value, std::move(data), gas);
    wire.instance = static_cast<int64_t>(index);
    in.calldata_bytes += wire.calldata_bytes;
    owner->push_back(wire.hash);
    planned_[h].push_back(std::move(wire));
  };
  plan(height, alice, 0, std::nullopt, U256(), std::move(onchain_init),
       kDeployGas, &in.alice_txs);
  plan(height + 1, alice, 1, in.onchain, Deposit(),
       contracts::DepositCalldata(), kCallGas, &in.alice_txs);
  plan(height + 1, bob, 0, in.onchain, Deposit(), contracts::DepositCalldata(),
       kCallGas, &in.bob_txs);
  // After the deposits alice's next nonce is 2 and bob's is 1.
  const secp256k1::PrivateKey& winner = in.bob_wins ? bob : alice;
  const secp256k1::PrivateKey& loser = in.bob_wins ? alice : bob;
  std::vector<Hash32>* winner_txs = in.bob_wins ? &in.bob_txs : &in.alice_txs;
  std::vector<Hash32>* loser_txs = in.bob_wins ? &in.alice_txs : &in.bob_txs;
  const uint64_t winner_nonce = in.bob_wins ? 1 : 2;
  const uint64_t loser_nonce = in.bob_wins ? 2 : 1;
  if (!in.dispute) {
    plan(height + 2, loser, loser_nonce, in.onchain, U256(),
         contracts::ReassignCalldata(), kCallGas, loser_txs);
  } else {
    ONOFF_ASSIGN_OR_RETURN(Bytes offchain_init,
                           contracts::BuildOffChainInit(off));
    Hash32 digest = Keccak256(offchain_init);
    ONOFF_ASSIGN_OR_RETURN(secp256k1::Signature sig_a,
                           secp256k1::Sign(digest, alice));
    ONOFF_ASSIGN_OR_RETURN(secp256k1::Signature sig_b,
                           secp256k1::Sign(digest, bob));
    plan(height + 3, winner, winner_nonce, in.onchain, U256(),
         contracts::DeployVerifiedInstanceCalldata(offchain_init, sig_a.v,
                                                   sig_a.r, sig_a.s, sig_b.v,
                                                   sig_b.r, sig_b.s),
         kRevealGas, winner_txs);
    plan(height + 4, winner, winner_nonce + 1, in.verified, U256(),
         contracts::ReturnDisputeResolutionCalldata(in.onchain), kResolveGas,
         winner_txs);
  }
  new_participants_.push_back(in.alice);
  new_participants_.push_back(in.bob);
  instances_.push_back(std::move(in));
  return Status::OK();
}

std::vector<WireTx> BettingPlanner::Take(uint64_t height) {
  auto it = planned_.find(height);
  if (it == planned_.end()) return {};
  std::vector<WireTx> out = std::move(it->second);
  planned_.erase(it);
  return out;
}

std::vector<Address> BettingPlanner::TakeNewParticipants() {
  return std::exchange(new_participants_, {});
}

// ---- NodeStream ----

NodeStream::NodeStream(const NodeShape& shape, uint64_t seed)
    : shape_(shape),
      traffic_(seed ^ kTrafficStream),
      betting_(seed, shape.reveal_iterations) {
  for (size_t i = 0; i < shape.senders; ++i) {
    senders_.push_back(DeriveKey(seed, "sender", i));
    sender_addrs_.push_back(senders_.back().EthAddress());
    order_.push_back(i);
  }
  nonces_.assign(shape.senders, 0);
  for (size_t i = 0; i < shape.recipients; ++i) {
    recipients_.push_back(DeriveAddress(seed, "account", i));
  }
  if (shape.traffic == NodeShape::Traffic::kCompute && shape.senders > 0) {
    for (const Address& sender : sender_addrs_) {
      contracts_.push_back(evm::Evm::ContractAddress(sender, 0));
    }
    shared_ = evm::Evm::ContractAddress(sender_addrs_[0], 1);
  }
}

void NodeStream::Fund(chain::Blockchain* chain) const {
  for (const Address& a : sender_addrs_) {
    chain->FundAccount(a, contracts::Ether(1'000));
  }
  for (const Address& a : recipients_) chain->FundAccount(a, contracts::Ether(1));
}

Status NodeStream::SetupDeploys(std::vector<WireTx>* out) {
  if (shape_.traffic != NodeShape::Traffic::kCompute || senders_.empty()) {
    return Status::OK();
  }
  ONOFF_ASSIGN_OR_RETURN(Bytes own, LoopContractInit(kOwnTail));
  ONOFF_ASSIGN_OR_RETURN(Bytes shared, LoopContractInit(kSharedTail));
  for (size_t i = 0; i < senders_.size(); ++i) {
    out->push_back(SignTx(senders_[i], nonces_[i]++, std::nullopt, U256(), own,
                          kSetupDeployGas));
  }
  out->push_back(SignTx(senders_[0], nonces_[0]++, std::nullopt, U256(),
                        shared, kSetupDeployGas));
  return Status::OK();
}

void NodeStream::Anchor(uint64_t height, uint64_t timestamp,
                        uint64_t interval) {
  first_height_ = height;
  next_height_ = height;
  betting_.Anchor(height, timestamp, interval);
}

Status NodeStream::Next(bool start_new, PlannedBlock* out) {
  out->height = next_height_++;
  out->txs.clear();
  const uint64_t index = out->height - first_height_;
  if (start_new) {
    const uint64_t k = shape_.starts_per_4_blocks;
    for (uint64_t n = (index + 1) * k / 4 - index * k / 4; n > 0; --n) {
      ONOFF_RETURN_NOT_OK(betting_.Start(out->height));
    }
  }
  std::vector<WireTx> betting = betting_.Take(out->height);
  uint64_t gas = 0;
  for (const WireTx& wire : betting) gas += wire.gas_limit;
  if (gas > shape_.block_gas_limit ||
      betting.size() > shape_.max_txs_per_block) {
    return Status::Internal("betting transactions overflow a block");
  }
  if (start_new && !senders_.empty()) {
    const uint64_t gas_room = shape_.block_gas_limit - gas;
    const size_t count_room = shape_.max_txs_per_block - betting.size();
    if (shape_.traffic == NodeShape::Traffic::kTransfers) {
      size_t n = std::min<size_t>(
          {shape_.transfers_per_block, count_room,
           static_cast<size_t>(gas_room / kTransferGas)});
      for (size_t i = 0; i < n && !recipients_.empty(); ++i) {
        size_t s = traffic_.Below(senders_.size());
        size_t r = traffic_.Below(recipients_.size());
        U256 value(1 + traffic_.Below(1'000'000));
        out->txs.push_back(SignTx(senders_[s], nonces_[s]++, recipients_[r],
                                  value, {}, kTransferGas));
      }
    } else {
      // Fills are dealt from a shuffled deck holding every size in
      // [min_calls, max_calls] once, so every run sees the same mix of small
      // and large blocks, only in a seeded order.
      if (fill_deck_.empty()) {
        for (size_t k = shape_.min_calls; k <= shape_.max_calls; ++k) {
          fill_deck_.push_back(k);
        }
        for (size_t k = fill_deck_.size(); k > 1; --k) {
          std::swap(fill_deck_[k - 1], fill_deck_[traffic_.Below(k)]);
        }
      }
      size_t want = fill_deck_.back();
      fill_deck_.pop_back();
      size_t n = std::min<size_t>(
          {want, count_room, static_cast<size_t>(gas_room / kLoopCallGas),
           senders_.size()});
      // Distinct senders per block, so that only the shared counter makes
      // calls conflict.
      for (size_t i = 0; i < n; ++i) {
        std::swap(order_[i], order_[i + traffic_.Below(order_.size() - i)]);
        size_t s = order_[i];
        const Address& to = traffic_.Below(8) == 0 ? shared_ : contracts_[s];
        out->txs.push_back(
            SignTx(senders_[s], nonces_[s]++, to, U256(), {}, kLoopCallGas));
      }
    }
  }
  for (WireTx& wire : betting) out->txs.push_back(std::move(wire));
  return Status::OK();
}

}  // namespace perfbench
