#include "contracts/betting.h"

#include "analysis/analyzer.h"
#include "contracts/codegen.h"
#include "crypto/keccak.h"
#include "evm/opcodes.h"

namespace onoff::contracts {

using evm::Opcode;

namespace {

constexpr std::string_view kDepositSig = "deposit()";
constexpr std::string_view kRefundOneSig = "refundRoundOne()";
constexpr std::string_view kRefundTwoSig = "refundRoundTwo()";
constexpr std::string_view kReassignSig = "reassign()";
constexpr std::string_view kDeploySig =
    "deployVerifiedInstance(bytes,uint8,bytes32,bytes32,uint8,bytes32,bytes32)";
constexpr std::string_view kEnforceSig = "enforceDisputeResolution(bool)";
constexpr std::string_view kReturnSig = "returnDisputeResolution(address)";
constexpr std::string_view kGetWinnerSig = "getWinner()";

// Pushes `1` if caller is `a`, `0` if caller is someone else; the caller-
// index convention maps alice->slot kBalanceAlice, bob->kBalanceBob.
void EmitCallerSlot(ContractWriter& w, const BettingConfig& cfg) {
  // slot = (caller == alice) ? 0 : 1
  w.CallerIs(cfg.alice);
  w.b().Op(Opcode::ISZERO);
}

// require(balances both equal the full stake: deposit + security).
void EmitRequireAmountMet(ContractWriter& w, const BettingConfig& cfg) {
  w.SLoad(U256(betting_slots::kBalanceAlice));
  w.PushU(cfg.TotalStake());
  w.b().Op(Opcode::EQ);
  w.SLoad(U256(betting_slots::kBalanceBob));
  w.PushU(cfg.TotalStake());
  w.b().Op(Opcode::EQ);
  w.b().Op(Opcode::AND);
  w.Require();
}

// Refund the caller's own balance (shared by both refund rounds):
// slot = callerSlot; bal = sload(slot); require bal > 0; sstore(slot, 0);
// caller.transfer(bal).
void EmitRefundCaller(ContractWriter& w, const BettingConfig& cfg) {
  EmitCallerSlot(w, cfg);           // [slot]
  w.b().Op(Opcode::DUP1);
  w.b().Op(Opcode::SLOAD);          // [slot, bal]
  w.b().Op(Opcode::DUP1);
  w.Require();                      // require bal != 0
  w.b().Op(Opcode::DUP2);           // [slot, bal, slot]
  w.PushU(U256(0));                 // [slot, bal, slot, 0]
  w.SStoreDynamic();                // [slot, bal]
  w.PushCaller();                   // [slot, bal, caller]
  w.b().Op(Opcode::SWAP1);          // [slot, caller, bal]
  w.TransferEther();                // [slot]
  w.b().Op(Opcode::POP);
}

// Emits the reveal() computation; leaves the winner bit (1 = bob) on the
// stack. Uses memory [0x00, 0x40) as scratch.
void EmitReveal(ContractWriter& w, const OffchainConfig& cfg) {
  EmitKeccakChain(w, {cfg.secret_alice, cfg.secret_bob},
                  cfg.reveal_iterations);  // [h]
  w.PushU(U256(1));
  w.b().Op(Opcode::AND);                  // [winner]
}

}  // namespace

U256 Ether(uint64_t n) { return U256(n) * U256(10).Exp(U256(18)); }

Result<Bytes> BuildOnChainRuntime(const BettingConfig& cfg) {
  ContractWriter w;
  auto f_deposit = w.Declare(kDepositSig);
  auto f_refund1 = w.Declare(kRefundOneSig);
  auto f_refund2 = w.Declare(kRefundTwoSig);
  auto f_reassign = w.Declare(kReassignSig);
  auto f_deploy = w.Declare(kDeploySig);
  auto f_enforce = w.Declare(kEnforceSig);
  w.FinishDispatch();

  // ---- deposit() payable, beforeT1, certifiedparticipantOnly ----
  w.BeginFunction(f_deposit);
  w.RequireBefore(cfg.t1);
  w.RequireCallerIsEither(cfg.alice, cfg.bob);
  // require(msg.value == deposit_amount + security_deposit)
  w.PushCallValue();
  w.PushU(cfg.TotalStake());
  w.b().Op(Opcode::EQ);
  w.Require();
  // require(balance[caller] == 0), then balance[caller] = msg.value.
  EmitCallerSlot(w, cfg);            // [slot]
  w.b().Op(Opcode::DUP1);
  w.b().Op(Opcode::SLOAD);
  w.b().Op(Opcode::ISZERO);
  w.Require();                       // [slot]
  w.PushCallValue();                 // [slot, value]
  w.SStoreDynamic();
  w.EndFunctionStop();

  // ---- refundRoundOne() beforeT1 ----
  w.BeginFunction(f_refund1);
  w.RequireBefore(cfg.t1);
  w.RequireCallerIsEither(cfg.alice, cfg.bob);
  EmitRefundCaller(w, cfg);
  w.EndFunctionStop();

  // ---- refundRoundTwo() T1..T2, amountNotMet ----
  w.BeginFunction(f_refund2);
  w.RequireAtOrAfter(cfg.t1);
  w.RequireBefore(cfg.t2);
  w.RequireCallerIsEither(cfg.alice, cfg.bob);
  // require(!(balA == stake && balB == stake))
  w.SLoad(U256(betting_slots::kBalanceAlice));
  w.PushU(cfg.TotalStake());
  w.b().Op(Opcode::EQ);
  w.SLoad(U256(betting_slots::kBalanceBob));
  w.PushU(cfg.TotalStake());
  w.b().Op(Opcode::EQ);
  w.b().Op(Opcode::AND);
  w.RequireNot();
  EmitRefundCaller(w, cfg);
  w.EndFunctionStop();

  // ---- reassign() T2..T3: the caller admits losing; counterparty gets all.
  w.BeginFunction(f_reassign);
  w.RequireAtOrAfter(cfg.t2);
  w.RequireBefore(cfg.t3);
  w.RequireCallerIsEither(cfg.alice, cfg.bob);
  EmitRequireAmountMet(w, cfg);
  // require(!resolved); resolved = 1.
  w.SLoad(U256(betting_slots::kResolved));
  w.RequireNot();
  w.PushU(U256(1));
  w.SStore(U256(betting_slots::kResolved));
  // Zero both balances.
  w.PushU(U256(0));
  w.SStore(U256(betting_slots::kBalanceAlice));
  w.PushU(U256(0));
  w.SStore(U256(betting_slots::kBalanceBob));
  // recipient = (caller == alice) ? bob : alice.
  {
    auto is_alice = w.NewLabel();
    auto done = w.NewLabel();
    w.CallerIs(cfg.alice);
    w.b().PushLabel(is_alice);
    w.b().Op(Opcode::JUMPI);
    w.PushAddress(cfg.alice);  // caller is bob -> alice gets the pot
    w.b().PushLabel(done);
    w.b().Op(Opcode::JUMP);
    w.Bind(is_alice);
    w.PushAddress(cfg.bob);
    w.Bind(done);
  }
  // The counterparty (winner) receives both bet deposits plus their own
  // security; the caller (loser admitted honestly) gets their security back.
  w.PushU(cfg.deposit_amount * U256(2) + cfg.security_deposit);  // [to, amt]
  w.TransferEther();
  if (!cfg.security_deposit.IsZero()) {
    w.PushCaller();
    w.PushU(cfg.security_deposit);
    w.TransferEther();
  }
  w.EndFunctionStop();

  // ---- deployVerifiedInstance(bytes,uint8,bytes32,bytes32,uint8,bytes32,
  //      bytes32) afterT3, certifiedparticipantOnly, amountMet (Alg. 5) ----
  w.BeginFunction(f_deploy);
  w.RequireAtOrAfter(cfg.t3);
  w.RequireCallerIsEither(cfg.alice, cfg.bob);
  EmitRequireAmountMet(w, cfg);
  w.SLoad(U256(betting_slots::kResolved));
  w.RequireNot();
  // Only one verified instance may ever be created.
  w.SLoad(U256(betting_slots::kDeployedAddr));
  w.RequireNot();
  // Stage the candidate bytecode and verify both signatures
  // (Alg. 5: a == participant[0], b == participant[1]).
  EmitStageBytesArg0(w);
  EmitEcrecoverRequire(w, /*arg_base=*/1, cfg.alice);
  EmitEcrecoverRequire(w, /*arg_base=*/4, cfg.bob);
  // create(0, bytecode, len)  (Alg. 5 assembly).
  EmitCreateFromStagedBytes(w);
  w.SStore(U256(betting_slots::kDeployedAddr));
  // Remember who paid for the dispute (compensated from the loser's
  // security deposit when enforcement lands).
  w.PushCaller();
  w.SStore(U256(betting_slots::kChallenger));
  w.EndFunctionStop();

  // ---- enforceDisputeResolution(bool) deployedAddrOnly (Alg. 6) ----
  w.BeginFunction(f_enforce);
  // require(deployedAddr != 0 && msg.sender == deployedAddr)
  EmitRequireCallerIsStored(w, U256(betting_slots::kDeployedAddr));
  w.SLoad(U256(betting_slots::kResolved));
  w.RequireNot();
  w.PushU(U256(1));
  w.SStore(U256(betting_slots::kResolved));
  // total = balA + balB (sum BEFORE zeroing; fixes the Alg. 6 ordering bug).
  w.SLoad(U256(betting_slots::kBalanceAlice));
  w.SLoad(U256(betting_slots::kBalanceBob));
  w.b().Op(Opcode::ADD);             // [total]
  w.PushU(U256(0));
  w.SStore(U256(betting_slots::kBalanceAlice));
  w.PushU(U256(0));
  w.SStore(U256(betting_slots::kBalanceBob));
  // recipient = winner ? bob : alice.
  {
    auto bob_wins = w.NewLabel();
    auto send = w.NewLabel();
    w.PushArg(0);
    w.b().PushLabel(bob_wins);
    w.b().Op(Opcode::JUMPI);
    w.PushAddress(cfg.alice);
    w.b().PushLabel(send);
    w.b().Op(Opcode::JUMP);
    w.Bind(bob_wins);
    w.PushAddress(cfg.bob);
    w.Bind(send);                    // [total, to]
    w.b().Op(Opcode::SWAP1);         // [to, total]
  }
  if (!cfg.security_deposit.IsZero()) {
    // The winner receives the pot minus the loser's forfeited security:
    // amount = total - security. Stack: [to, total].
    w.PushU(cfg.security_deposit);   // [to, total, sec]
    w.b().Op(Opcode::SWAP1);         // [to, sec, total]
    w.b().Op(Opcode::SUB);           // [to, total - sec]
  }
  w.TransferEther();
  if (!cfg.security_deposit.IsZero()) {
    // The forfeited security compensates whoever paid for the dispute
    // (paper §IV: the honest participant funding dispute resolution is
    // compensated by the dishonest one).
    w.SLoad(U256(betting_slots::kChallenger));  // [challenger]
    w.PushU(cfg.security_deposit);              // [to, amount]
    w.TransferEther();
  }
  w.EndFunctionStop();

  return w.BuildRuntime();
}

Result<Bytes> BuildOnChainInit(const BettingConfig& cfg) {
  ONOFF_ASSIGN_OR_RETURN(Bytes runtime, BuildOnChainRuntime(cfg));
  return WrapDeployer(runtime);
}

Result<Bytes> BuildOffChainRuntime(const OffchainConfig& cfg) {
  ContractWriter w;
  auto f_return = w.Declare(kReturnSig);
  auto f_get = w.Declare(kGetWinnerSig);
  w.FinishDispatch();

  // ---- returnDisputeResolution(address) certifiedparticipantOnly (Alg. 3):
  // C_on.enforceDisputeResolution(reveal()) ----
  w.BeginFunction(f_return);
  w.RequireCallerIsEither(cfg.alice, cfg.bob);
  EmitReveal(w, cfg);                // [winner]
  EmitEnforceCallback(w, kEnforceSig);
  w.EndFunctionStop();

  // ---- getWinner() view: lets participants execute reveal() locally ----
  w.BeginFunction(f_get);
  EmitReveal(w, cfg);
  w.EndFunctionReturnWord();

  return w.BuildRuntime();
}

Result<Bytes> BuildOffChainInit(const OffchainConfig& cfg) {
  ONOFF_ASSIGN_OR_RETURN(Bytes runtime, BuildOffChainRuntime(cfg));
  return WrapDeployer(runtime);
}

bool ComputeWinner(const OffchainConfig& cfg) {
  Bytes seed = cfg.secret_alice.ToBytes();
  Bytes secret_b = cfg.secret_bob.ToBytes();
  Append(seed, secret_b);
  Hash32 h = Keccak256(seed);
  for (uint64_t i = 0; i < cfg.reveal_iterations; ++i) {
    h = Keccak256(BytesView(h.data(), h.size()));
  }
  return (h[31] & 1) != 0;
}

Bytes DepositCalldata() { return abi::EncodeCall(kDepositSig, {}); }
Bytes RefundRoundOneCalldata() { return abi::EncodeCall(kRefundOneSig, {}); }
Bytes RefundRoundTwoCalldata() { return abi::EncodeCall(kRefundTwoSig, {}); }
Bytes ReassignCalldata() { return abi::EncodeCall(kReassignSig, {}); }

Bytes DeployVerifiedInstanceCalldata(const Bytes& offchain_bytecode,
                                     uint8_t va, const U256& ra, const U256& sa,
                                     uint8_t vb, const U256& rb,
                                     const U256& sb) {
  return abi::EncodeCall(
      kDeploySig,
      {abi::Value::DynBytes(offchain_bytecode), abi::Value::Uint(va),
       abi::Value::Bytes32(ra), abi::Value::Bytes32(sa), abi::Value::Uint(vb),
       abi::Value::Bytes32(rb), abi::Value::Bytes32(sb)});
}

Bytes EnforceDisputeResolutionCalldata(bool winner) {
  return abi::EncodeCall(kEnforceSig, {abi::Value::Bool(winner)});
}

Bytes ReturnDisputeResolutionCalldata(const Address& onchain_addr) {
  return abi::EncodeCall(kReturnSig, {abi::Value::Addr(onchain_addr)});
}

Bytes GetWinnerCalldata() { return abi::EncodeCall(kGetWinnerSig, {}); }

analysis::AnalysisOptions OnChainPolicy() {
  analysis::AnalysisOptions options;
  for (std::string_view sig : {kDepositSig, kRefundOneSig, kRefundTwoSig,
                               kReassignSig, kDeploySig, kEnforceSig}) {
    options.function_names[abi::SelectorWord(sig)] = sig;
    if (sig != kDeploySig) {
      options.light_selectors.push_back(abi::SelectorWord(sig));
    }
  }
  return options;
}

analysis::AnalysisOptions OffChainPolicy() {
  analysis::AnalysisOptions options;
  for (std::string_view sig : {kGetWinnerSig, kReturnSig}) {
    options.function_names[abi::SelectorWord(sig)] = sig;
  }
  options.private_selectors.push_back(abi::SelectorWord(kGetWinnerSig));
  return options;
}

}  // namespace onoff::contracts
