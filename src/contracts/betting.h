// The paper's example contracts (Section IV, Algorithms 2-6), compiled to
// EVM bytecode by the deterministic codegen toolkit:
//
//  * the ON-CHAIN betting contract: deposit(), refundRoundOne(),
//    refundRoundTwo(), reassign() (light/public functions) padded with the
//    extra functions deployVerifiedInstance(...) and
//    enforceDisputeResolution(bool);
//  * the OFF-CHAIN contract: the heavy/private reveal() logic (private
//    betting secrets + an adjustable amount of computation) padded with the
//    extra function returnDisputeResolution(address), plus a
//    getWinner() view used by participants executing it locally.
//
// Participant addresses, time windows and the deposit amount are compiled in
// as immediates (the equivalent of Solidity constructor arguments fixed at
// compile time), which keeps the signed off-chain bytecode self-contained.
//
// Note: Algorithm 6 in the paper zeroes accountBalance[...] *before* summing
// them for the transfer, which would always transfer 0. We implement the
// evidently intended order (sum, zero, transfer) and document the deviation.

#ifndef ONOFFCHAIN_CONTRACTS_BETTING_H_
#define ONOFFCHAIN_CONTRACTS_BETTING_H_

#include <cstdint>

#include "abi/abi.h"
#include "support/address.h"
#include "support/bytes.h"
#include "support/status.h"
#include "support/u256.h"

namespace onoff::analysis {
struct AnalysisOptions;
}  // namespace onoff::analysis

namespace onoff::contracts {

// 10^18 wei.
U256 Ether(uint64_t n);

// Parameters of the on-chain betting contract (Table I).
struct BettingConfig {
  Address alice;              // participant[0]
  Address bob;                // participant[1]
  U256 deposit_amount;        // 1 ether in the paper
  // The paper's §IV extension: an additional security deposit per
  // participant. Each deposit() must carry deposit_amount +
  // security_deposit. On the honest path both securities are returned; on
  // the dispute path the dishonest loser's security compensates whoever
  // paid for deployVerifiedInstance (the challenger).
  U256 security_deposit;      // zero = the paper's base Table I rules
  uint64_t t1 = 0;            // deposit deadline
  uint64_t t2 = 0;            // refund-round-two deadline / result available
  uint64_t t3 = 0;            // reassign deadline; disputes open after this

  // Total wei each participant locks up.
  U256 TotalStake() const { return deposit_amount + security_deposit; }
};

// Storage layout of the on-chain contract.
namespace betting_slots {
inline constexpr uint64_t kBalanceAlice = 0;
inline constexpr uint64_t kBalanceBob = 1;
inline constexpr uint64_t kDeployedAddr = 2;
inline constexpr uint64_t kResolved = 3;
// Who called deployVerifiedInstance (paid for the dispute); receives the
// dishonest party's security deposit as compensation.
inline constexpr uint64_t kChallenger = 4;
}  // namespace betting_slots

// Parameters of the off-chain contract. The secrets are the private betting
// inputs that never appear on-chain unless a dispute forces them out;
// `reveal_iterations` scales the computational weight of reveal() (the
// "heavy" knob swept by the Table II benchmark).
struct OffchainConfig {
  Address alice;
  Address bob;
  U256 secret_alice;
  U256 secret_bob;
  uint64_t reveal_iterations = 0;
};

// On-chain contract: runtime bytecode, and init code for deployment.
Result<Bytes> BuildOnChainRuntime(const BettingConfig& config);
Result<Bytes> BuildOnChainInit(const BettingConfig& config);

// Off-chain contract. The *init* bytecode is what every participant signs
// and what deployVerifiedInstance() feeds to CREATE.
Result<Bytes> BuildOffChainRuntime(const OffchainConfig& config);
Result<Bytes> BuildOffChainInit(const OffchainConfig& config);

// The reveal() computation executed natively — what honest participants run
// locally to agree on the result without touching the chain. True = bob won.
bool ComputeWinner(const OffchainConfig& config);

// ---- Calldata builders for every function ----
Bytes DepositCalldata();
Bytes RefundRoundOneCalldata();
Bytes RefundRoundTwoCalldata();
Bytes ReassignCalldata();
// bytecode + both participants' (v,r,s) over keccak256(bytecode).
Bytes DeployVerifiedInstanceCalldata(const Bytes& offchain_bytecode,
                                     uint8_t va, const U256& ra, const U256& sa,
                                     uint8_t vb, const U256& rb, const U256& sb);
Bytes EnforceDisputeResolutionCalldata(bool winner);
Bytes ReturnDisputeResolutionCalldata(const Address& onchain_addr);
Bytes GetWinnerCalldata();

// The paper's classification of the pair as analyzer policy, with every
// function named. Each on-chain entry point except the CREATE-ing
// deployVerifiedInstance is light: its gas bound must sit below the block
// gas limit. The off-chain getWinner() is private: it reads the secrets, so
// it must not leak them into state. returnDisputeResolution is the
// sanctioned CALL path and stays unclassified.
analysis::AnalysisOptions OnChainPolicy();
analysis::AnalysisOptions OffChainPolicy();

}  // namespace onoff::contracts

#endif  // ONOFFCHAIN_CONTRACTS_BETTING_H_
