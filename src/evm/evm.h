// The EVM interpreter: executes contract bytecode against a StateView
// (normally the WorldState, or a speculative overlay of it) with
// the Byzantium gas schedule, message calls, contract creation and the
// standard precompiles. This is the "miners execute the contract" substrate
// that the on/off-chain protocol runs on — and also what participants use
// locally to execute the off-chain contract without miners.

#ifndef ONOFFCHAIN_EVM_EVM_H_
#define ONOFFCHAIN_EVM_EVM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "crypto/keccak.h"
#include "state/state_view.h"
#include "support/address.h"
#include "support/bytes.h"
#include "support/u256.h"

namespace onoff::evm {

class TraceHook;  // evm/trace_hook.h

// Block-level environment visible to contracts (TIMESTAMP, NUMBER, ...).
struct BlockContext {
  uint64_t number = 0;
  uint64_t timestamp = 0;
  Address coinbase;
  uint64_t gas_limit = 8'000'000;
  U256 difficulty;
  // Hash provider for BLOCKHASH; may be empty (returns zero hashes).
  std::function<Hash32(uint64_t)> block_hash;
};

// Transaction-level environment (ORIGIN, GASPRICE).
struct TxContext {
  Address origin;
  U256 gas_price;
};

// An emitted LOG record (Ethereum event).
struct LogEntry {
  Address address;
  std::vector<U256> topics;
  Bytes data;
};

// How a frame ended.
enum class Outcome {
  kSuccess,
  kRevert,             // REVERT: state rolled back, remaining gas returned
  kOutOfGas,
  kInvalidInstruction,
  kStackUnderflow,
  kStackOverflow,
  kBadJumpDestination,
  kStaticViolation,    // state mutation inside STATICCALL
  kCallDepthExceeded,
  kInsufficientBalance,
  kCodeSizeExceeded,   // EIP-170 deploy limit
};

const char* OutcomeToString(Outcome outcome);

// Which interpreter loop executes an Evm's frames (see evm/interp.h):
//  - kThreaded: the cached, fused code analysis under threaded dispatch;
//  - kSwitch:   the reference per-instruction switch loop, kept as the
//               ground truth that benches and differential tests compare
//               the threaded loop against.
// Both are observably identical (outcome, gas, state, logs, metrics).
// Whatever the mode, a frame with a step hook, a switch_only analysis or a
// doomed block runs on the switch loop (see Interpreter::Run).
enum class DispatchMode {
  kSwitch,
  kThreaded,
};

struct ExecResult {
  Outcome outcome = Outcome::kSuccess;
  // RETURN payload on success, REVERT reason otherwise.
  Bytes output;
  uint64_t gas_left = 0;
  // SSTORE/SELFDESTRUCT refund accumulated by this execution (the caller
  // caps it at gas_used/2 per the Yellow Paper).
  uint64_t refund = 0;
  std::vector<LogEntry> logs;
  // Address of the deployed contract (Create only).
  Address created;

  bool ok() const { return outcome == Outcome::kSuccess; }
};

// A message call request.
struct CallMessage {
  Address caller;
  Address to;
  U256 value;
  Bytes data;
  uint64_t gas = 0;
  bool is_static = false;
};

class Evm {
 public:
  Evm(state::StateView* world, BlockContext block, TxContext tx)
      : world_(world),
        block_(std::move(block)),
        tx_(std::move(tx)) {}

  // Executes a message call (including plain value transfers and
  // precompiles). State changes are journaled and reverted on failure.
  ExecResult Call(const CallMessage& msg);

  // Deploys a contract: runs `init_code`, deposits its return value as the
  // account code, charging 200 gas/byte.
  ExecResult Create(const Address& caller, const U256& value,
                    const Bytes& init_code, uint64_t gas);

  // CREATE address derivation: keccak256(rlp([creator, nonce]))[12..].
  static Address ContractAddress(const Address& creator, uint64_t nonce);
  // CREATE2 address derivation: keccak256(0xff ++ creator ++ salt ++
  // keccak(init_code))[12..].
  static Address Create2Address(const Address& creator, const U256& salt,
                                const Bytes& init_code);

  const BlockContext& block() const { return block_; }
  state::StateView* world() { return world_; }

  // Installs an execution tracer (see evm/trace_hook.h). The hook observes
  // every interpreter step and call-frame boundary for the lifetime of this
  // Evm; pass nullptr to detach. Not owned.
  void set_trace_hook(TraceHook* hook) { trace_hook_ = hook; }
  TraceHook* trace_hook() const { return trace_hook_; }

  // Selects the interpreter loop for frames run by this Evm (default
  // kThreaded).
  void set_dispatch_mode(DispatchMode mode) { dispatch_mode_ = mode; }
  DispatchMode dispatch_mode() const { return dispatch_mode_; }

 private:
  friend class Interpreter;

  ExecResult CallInternal(const CallMessage& msg, int depth);
  ExecResult CreateInternal(const Address& caller, const U256& value,
                            const Bytes& init_code, uint64_t gas,
                            const U256* salt, int depth);

  state::StateView* world_;
  BlockContext block_;
  TxContext tx_;
  TraceHook* trace_hook_ = nullptr;
  DispatchMode dispatch_mode_ = DispatchMode::kThreaded;
};

}  // namespace onoff::evm

#endif  // ONOFFCHAIN_EVM_EVM_H_
