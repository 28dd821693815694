// Contract code generation toolkit: a deterministic "compiler" from a small
// set of EVM idioms (selector dispatch, require-guards, storage access,
// ether transfer, inter-contract calls) to runtime bytecode, plus the
// standard deployer wrapper that turns runtime code into init code.
//
// The paper requires all participants to compile the off-chain contract to
// the *same bytecode* ("all the participants should use the same version of
// compiler"); this generator is deterministic by construction.

#ifndef ONOFFCHAIN_CONTRACTS_CODEGEN_H_
#define ONOFFCHAIN_CONTRACTS_CODEGEN_H_

#include <initializer_list>
#include <string_view>
#include <vector>

#include "abi/abi.h"
#include "easm/assembler.h"
#include "evm/opcodes.h"
#include "support/address.h"
#include "support/bytes.h"
#include "support/status.h"
#include "support/u256.h"

namespace onoff::contracts {

// Wraps runtime bytecode in the standard constructor-less deployer: init
// code that CODECOPYs the runtime and RETURNs it.
Bytes WrapDeployer(const Bytes& runtime);

// Builder for runtime bytecode with function dispatch.
//
// Usage:
//   ContractWriter w;
//   auto f = w.Declare("deposit()");
//   w.FinishDispatch();            // after all Declare() calls
//   w.BeginFunction(f);
//   ... body using helpers / w.b() ...
//   w.EndFunctionStop();
//   Bytes runtime = w.BuildRuntime();
class ContractWriter {
 public:
  using Label = easm::CodeBuilder::Label;

  ContractWriter();

  // Declares an externally callable function by ABI signature; must be
  // called before FinishDispatch. Returns the label to bind with
  // BeginFunction.
  Label Declare(std::string_view signature);
  // Emits the fallback (revert on unknown selector); call exactly once after
  // all Declare()s.
  void FinishDispatch();

  // Binds a declared function's entry point.
  void BeginFunction(Label label);
  // Terminates a function body with STOP.
  void EndFunctionStop();
  // Terminates a function body returning the word on top of the stack.
  void EndFunctionReturnWord();

  // ---- Expression helpers (values go to the EVM stack) ----
  void PushU(const U256& v);
  void PushAddress(const Address& a);
  void PushCaller();
  void PushCallValue();
  void PushTimestamp();
  // Loads argument word `index` (0-based, after the selector).
  void PushArg(int index);
  void SLoad(const U256& slot);
  // Stores stack top to `slot`.
  void SStore(const U256& slot);
  // Stores stack top to the slot whose number is *below it* on the stack
  // (stack: ... slot value -> ...).
  void SStoreDynamic();

  // ---- Statement helpers ----
  // Pops a condition; reverts if zero.
  void Require();
  // Reverts unconditionally.
  void Revert();
  // Pops a condition; reverts if NON-zero (require-not).
  void RequireNot();

  // require(msg.sender == a || msg.sender == b)
  void RequireCallerIsEither(const Address& a, const Address& b);
  // require(msg.sender is one of `addrs`); addrs must be non-empty.
  void RequireCallerIsOneOf(const std::vector<Address>& addrs);
  // require(timestamp < t)
  void RequireBefore(uint64_t t);
  // require(timestamp >= t)
  void RequireAtOrAfter(uint64_t t);

  // Pops amount, then recipient address; sends ether via CALL with the
  // 2300-gas stipend (Solidity `transfer`) and requires success.
  // Stack: ... to amount -> ...
  void TransferEther();

  // Pushes 1 if caller == `a`, else 0.
  void CallerIs(const Address& a);

  // ---- Raw access ----
  easm::CodeBuilder& b() { return builder_; }
  Label NewLabel() { return builder_.NewLabel(); }
  void Bind(Label l) { builder_.Bind(l); }

  Result<Bytes> BuildRuntime() const { return builder_.Build(); }

 private:
  easm::CodeBuilder builder_;
  std::vector<std::pair<abi::Selector, Label>> functions_;
  bool dispatch_finished_ = false;
};

// ---- Shared fragments ----

// The iterated-keccak workload: stores the `seed` words at memory 0 and
// hashes them, then hashes the result `iterations` more times in a loop;
// leaves the final hash on the stack. Scratch: memory [0, 32 * seed size).
void EmitKeccakChain(ContractWriter& w, std::initializer_list<U256> seed,
                     uint64_t iterations);

// ---- Shared fragments for the dispute machinery ----

// Memory layout used by the verification/creation fragments below.
namespace dispute_mem {
inline constexpr uint64_t kEcInput = 0x00;   // hash | v | r | s
inline constexpr uint64_t kEcOutput = 0x80;  // recovered address
inline constexpr uint64_t kBytecodeAt = 0x100;
}  // namespace dispute_mem

// Stages the dynamic `bytes` argument 0 at dispute_mem::kBytecodeAt, stores
// keccak256(bytes) at dispute_mem::kEcInput, and leaves [len] on the stack.
void EmitStageBytesArg0(ContractWriter& w);

// Runs the ecrecover precompile over the hash already stored at
// dispute_mem::kEcInput with (v, r, s) in calldata args [arg_base ..
// arg_base+2], and requires the recovered address to equal `expected`.
// Stack-neutral.
void EmitEcrecoverRequire(ContractWriter& w, int arg_base,
                          const Address& expected);

// CREATEs a contract from the staged bytecode; expects [len] on the stack,
// leaves [addr], and requires the creation to succeed.
void EmitCreateFromStagedBytes(ContractWriter& w);

// require(the address stored in `slot` is set && msg.sender == it): the
// guard that lets only the verified instance enforce. Stack-neutral.
void EmitRequireCallerIsStored(ContractWriter& w, const U256& slot);

// The tail of returnDisputeResolution: pops the result word and CALLs
// `enforce_signature`(word) on the contract at calldata argument 0,
// forwarding all gas, and requires success. The calldata is staged at
// memory 0x40, since the resolver may have used [0x00, 0x40).
// Stack: ... word -> ...
void EmitEnforceCallback(ContractWriter& w,
                         std::string_view enforce_signature);

}  // namespace onoff::contracts

#endif  // ONOFFCHAIN_CONTRACTS_CODEGEN_H_
