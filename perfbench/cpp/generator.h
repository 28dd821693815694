// The seeded workload generator shared by all three workloads. Everything a
// run submits derives from --seed through this file: keys, account
// addresses, betting secrets, dispute choices and block fill. Wire
// transactions are signed here, during set-up, so the timed blocks see only
// what a node sees: RLP bytes to decode, recover, admit and mine.
//
// Every account address is derived from keccak. The chain's state maps hash
// an Address with std::hash<Address> (support/address.h), which reads only
// the first 8 address bytes, so small-word addresses such as
// Address::FromWord(U256(i)) all collide there. In a sizing prototype, 20 k
// such addresses took funding from 0.09 s to 3.97 s and the first commit
// from 0.33 s to 15.8 s. The hash itself is left as it is.

#ifndef ONOFF_PERFBENCH_GENERATOR_H_
#define ONOFF_PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "chain/blockchain.h"
#include "crypto/keccak.h"
#include "crypto/secp256k1.h"
#include "support/address.h"
#include "support/bytes.h"
#include "support/status.h"
#include "support/u256.h"

namespace perfbench {

// Share of betting instances that end in a dispute: the paper's Ablation A
// knob p.
inline constexpr double kDisputeRate = 0.2;

// splitmix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n); 0 when n == 0.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

// Which instances dispute: one in every group of five, at a seeded offset,
// so every run holds the same share of disputes (kDisputeRate).
class DisputePattern {
 public:
  explicit DisputePattern(uint64_t seed);
  bool Next();

 private:
  Rng rng_;
  uint64_t index_ = 0;
  uint64_t offset_ = 0;
};

onoff::secp256k1::PrivateKey DeriveKey(uint64_t seed, const char* role,
                                       uint64_t index);
onoff::Address DeriveAddress(uint64_t seed, const char* role, uint64_t index);

// A pre-signed wire transaction.
struct WireTx {
  onoff::Bytes rlp;
  onoff::Hash32 hash{};
  uint64_t gas_limit = 0;
  size_t calldata_bytes = 0;
  int64_t instance = -1;  // its betting instance, -1 for other traffic
};

WireTx SignTx(const onoff::secp256k1::PrivateKey& key, uint64_t nonce,
              std::optional<onoff::Address> to, const onoff::U256& value,
              onoff::Bytes data, uint64_t gas_limit);

// One block's worth of wire transactions, in submission order.
struct PlannedBlock {
  uint64_t height = 0;
  std::vector<WireTx> txs;
};

// One betting instance and what its settlement must look like.
struct Instance {
  onoff::Address alice;
  onoff::Address bob;
  bool dispute = false;
  bool bob_wins = false;
  uint64_t start_height = 0;  // the deploy's block
  uint64_t end_height = 0;    // the settling transaction's block
  onoff::Address onchain;     // CREATE address of the on-chain contract
  onoff::Address verified;    // CREATE address of the verified instance
  std::vector<onoff::Hash32> alice_txs;
  std::vector<onoff::Hash32> bob_txs;
  size_t calldata_bytes = 0;
};

// Betting instances (paper Table I) driven as raw transactions, without the
// protocol driver, on the chain's virtual block clock:
//   start      alice deploys the on-chain contract
//   start + 1  both deposit; T1 falls just after this block
//   start + 2  optimistic: the loser calls reassign() (T2 <= now < T3)
//   start + 3  disputed: the loser stays silent, and the winner calls
//              deployVerifiedInstance(...) with both signatures (now >= T3)
//   start + 4  disputed: the winner calls returnDisputeResolution(onchain)
// Every instance has two participants of its own, so their final balances
// pin the payout exactly.
class BettingPlanner {
 public:
  BettingPlanner(uint64_t seed, uint64_t reveal_iterations);

  // The height and timestamp of the first block the plan may use, and the
  // chain's block interval.
  void Anchor(uint64_t height, uint64_t timestamp, uint64_t interval);
  // Plans one new instance whose deploy lands at `height`.
  onoff::Status Start(uint64_t height);
  // Removes and returns the transactions planned for `height`.
  std::vector<WireTx> Take(uint64_t height);
  // Participants of instances started since the last call; they must be
  // funded before their first transaction.
  std::vector<onoff::Address> TakeNewParticipants();

  const std::vector<Instance>& instances() const { return instances_; }
  static onoff::U256 Deposit();
  static onoff::U256 ParticipantFunds();

 private:
  uint64_t TimestampOf(uint64_t height) const;

  uint64_t seed_;
  uint64_t reveal_iterations_;
  Rng secrets_;
  DisputePattern disputes_;
  uint64_t first_height_ = 0;
  uint64_t first_timestamp_ = 0;
  uint64_t interval_ = 0;
  std::vector<Instance> instances_;
  std::map<uint64_t, std::vector<WireTx>> planned_;
  std::vector<onoff::Address> new_participants_;
};

// What a node workload's stream is made of. The two workloads built from
// it, and why each exists, are in node_workloads.cc.
struct NodeShape {
  enum class Traffic { kTransfers, kCompute };
  Traffic traffic = Traffic::kTransfers;
  size_t senders = 0;
  size_t recipients = 0;           // kTransfers: funded accounts paid
  size_t transfers_per_block = 0;  // kTransfers
  size_t min_calls = 0;            // kCompute: calls per block, drawn per
  size_t max_calls = 0;            //   block from [min_calls, max_calls]
  uint64_t starts_per_4_blocks = 0;  // betting instances started
  uint64_t reveal_iterations = 0;
  uint64_t block_gas_limit = 0;
  size_t max_txs_per_block = 0;
};

// The pre-signed transaction stream of a node workload.
class NodeStream {
 public:
  NodeStream(const NodeShape& shape, uint64_t seed);

  // Genesis allocation: every sender and transfer recipient.
  void Fund(onoff::chain::Blockchain* chain) const;
  // Contract deploys mined during set-up: for kCompute, one loop contract
  // per sender plus the shared counter.
  onoff::Status SetupDeploys(std::vector<WireTx>* out);
  // Fixes the height and timestamp of the first streamed block.
  void Anchor(uint64_t height, uint64_t timestamp, uint64_t interval);
  // Plans and signs the next block: traffic first, then the betting
  // transactions due at its height. With `start_new` false it plans a
  // drain block: only the follow-ups of instances already started.
  onoff::Status Next(bool start_new, PlannedBlock* out);

  uint64_t first_height() const { return first_height_; }
  BettingPlanner& betting() { return betting_; }

 private:
  NodeShape shape_;
  Rng traffic_;
  std::vector<onoff::secp256k1::PrivateKey> senders_;
  std::vector<onoff::Address> sender_addrs_;
  std::vector<uint64_t> nonces_;
  std::vector<onoff::Address> recipients_;
  std::vector<onoff::Address> contracts_;  // kCompute: per-sender loops
  onoff::Address shared_;                  // kCompute: the shared counter
  std::vector<size_t> order_;              // kCompute: sender draw
  std::vector<size_t> fill_deck_;          // kCompute: calls per block
  BettingPlanner betting_;
  uint64_t first_height_ = 0;
  uint64_t next_height_ = 0;
};

}  // namespace perfbench

#endif  // ONOFF_PERFBENCH_GENERATOR_H_
