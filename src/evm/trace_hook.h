// The EVM execution tracing interface — the equivalent of geth's
// vm.EVMLogger behind debug_traceTransaction. An installed hook observes
// every interpreter step (pc, opcode, gas, depth, stack) and every call
// frame boundary (CALL family, CREATE family, precompiles, plain
// transfers), which is enough to reconstruct structLog records and a
// call-frame tree with per-frame gas attribution.
//
// Cost model: the interpreter pays exactly one pointer test per instruction
// and two per frame when no hook is installed (the same pattern as the
// opcode metrics counters), so tracing-off overhead is one never-taken
// branch.
//
// Implementations live in src/trace/ (StructLogTracer, FrameSpanHook) and
// src/analysis/ (GasBoundsChecker); this header keeps the EVM free of any
// dependency on either layer.

#ifndef ONOFFCHAIN_EVM_TRACE_HOOK_H_
#define ONOFFCHAIN_EVM_TRACE_HOOK_H_

#include <cstdint>
#include <cstring>

#include "support/address.h"
#include "support/bytes.h"
#include "support/u256.h"

namespace onoff::evm {

struct ExecResult;

// One interpreter step, observed BEFORE the instruction executes. The gas
// cost of the step is not known yet (for CALL/CREATE it includes the net
// consumption of the whole child frame); consumers derive it from the gas
// value of the next step at the same depth, or from the frame's exit
// gas_left — StructLogTracer does exactly that.
struct StepContext {
  uint64_t pc = 0;
  uint8_t opcode = 0;
  const char* op_name = "";
  // Gas remaining in this frame before the instruction executes.
  uint64_t gas = 0;
  int depth = 0;
  // The frame's full operand stack, bottom first as the interpreter holds
  // it (`stack[stack_size - 1]` is the top). Hooks copy the top-k slice
  // they want and must not retain the pointer past the call.
  const U256* stack = nullptr;
  size_t stack_size = 0;
  size_t memory_size = 0;
};

// One call frame opening. `kind` uses the triggering opcode's mnemonic
// ("CALL", "STATICCALL", "DELEGATECALL", "CALLCODE", "CREATE", "CREATE2")
// or "TRANSFER" / "PRECOMPILE" for frames with no interpreter activation.
struct FrameContext {
  const char* kind = "CALL";
  int depth = 0;
  // The account whose storage the frame mutates (self), the account whose
  // code runs, and the caller.
  Address self;
  Address code_address;
  Address caller;
  U256 value;
  uint64_t gas = 0;
  // The code the frame runs (empty for a transfer or a precompile) and its
  // input, which for a creation is the init code. Valid only during
  // OnFrameEnter: OnFrameExit sees both empty.
  BytesView code;
  BytesView input;

  bool IsCreate() const { return std::strncmp(kind, "CREATE", 6) == 0; }
};

class TraceHook {
 public:
  virtual ~TraceHook() = default;

  virtual void OnFrameEnter(const FrameContext& frame) { (void)frame; }
  // `gas_used` is the frame's total consumption (children included).
  virtual void OnFrameExit(const FrameContext& frame, const ExecResult& result,
                           uint64_t gas_used) {
    (void)frame;
    (void)result;
    (void)gas_used;
  }
  virtual void OnStep(const StepContext& step) { (void)step; }
};

}  // namespace onoff::evm

#endif  // ONOFFCHAIN_EVM_TRACE_HOOK_H_
