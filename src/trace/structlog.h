// The EVM execution tracer: an evm::TraceHook that records structLog-style
// step records (pc, opcode, gas, gasCost, depth, stack top-k) and a
// call-frame tree with per-frame gas attribution — the shape of Ethereum's
// debug_traceTransaction, which is the tool dispute debugging leans on.
//
// gasCost semantics: the delta of the *frame's own* gas counter across the
// instruction. For CALL/CREATE-family opcodes this therefore includes the
// net consumption of the entire child frame (geth's default structLog does
// the same). Because the interpreter reports steps before execution, the
// cost of a step is patched retroactively: when the next step at the same
// depth arrives, or — for a frame's final step — when the frame exits.
//
// Not thread-safe: attach one StructLogTracer to one Evm at a time (EVM
// execution is single-threaded per transaction).

#ifndef ONOFFCHAIN_TRACE_STRUCTLOG_H_
#define ONOFFCHAIN_TRACE_STRUCTLOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "evm/trace_hook.h"
#include "obs/json.h"
#include "support/address.h"
#include "support/u256.h"

namespace onoff::trace {

// One executed instruction.
struct StructLogRecord {
  uint64_t pc = 0;
  std::string op;
  uint64_t gas = 0;       // before the instruction
  uint64_t gas_cost = 0;  // frame gas delta across the instruction
  int depth = 0;
  size_t memory_size = 0;
  std::vector<U256> stack_top;  // top of stack first, at most config.stack_top_k
};

// One call frame, linked into a tree by indices.
struct CallFrame {
  std::string kind;  // CALL/STATICCALL/DELEGATECALL/CALLCODE/CREATE/CREATE2/
                     // TRANSFER/PRECOMPILE
  int depth = 0;
  Address self;
  Address code_address;
  Address caller;
  U256 value;
  uint64_t gas = 0;       // gas handed to the frame
  uint64_t gas_used = 0;  // total consumption, children included
  uint64_t gas_self = 0;  // gas_used minus the children's gas_used
  std::string outcome;    // OutcomeToString of the frame result
  size_t input_size = 0;
  size_t output_size = 0;
  int parent = -1;              // index into frames(), -1 for roots
  std::vector<int> children;    // indices into frames()
};

struct StructLogConfig {
  // Stack slots captured per step (top first). 0 disables stack capture.
  size_t stack_top_k = 8;
  // Hard cap on retained step records; further steps are counted, not kept.
  size_t max_records = 1u << 20;
};

class StructLogTracer : public evm::TraceHook {
 public:
  explicit StructLogTracer(StructLogConfig config = {});

  void OnFrameEnter(const evm::FrameContext& frame) override;
  void OnFrameExit(const evm::FrameContext& frame,
                   const evm::ExecResult& result, uint64_t gas_used) override;
  void OnStep(const evm::StepContext& step) override;

  const std::vector<StructLogRecord>& records() const { return records_; }
  const std::vector<CallFrame>& frames() const { return frames_; }
  uint64_t steps_seen() const { return steps_seen_; }
  uint64_t records_dropped() const { return records_dropped_; }

  // Total gas used by root frames (a finished trace's end-to-end cost).
  uint64_t TotalGasUsed() const;

  void Clear();

  // { "schema": "onoffchain-structlog-v1",
  //   "structLogs": [ {pc, op, gas, gasCost, depth, memSize, stack:[..]} ],
  //   "frames":     [ {kind, depth, self, ..., gas_used, children:[..]} ] }
  obs::Json ToJson() const;

 private:
  void PatchLastAtDepth(int depth, uint64_t gas_now);

  StructLogConfig config_;
  std::vector<StructLogRecord> records_;
  std::vector<CallFrame> frames_;
  std::vector<int> open_frames_;           // stack of indices into frames_
  std::vector<int64_t> last_record_at_depth_;  // -1 = none pending
  uint64_t steps_seen_ = 0;
  uint64_t records_dropped_ = 0;
};

}  // namespace onoff::trace

#endif  // ONOFFCHAIN_TRACE_STRUCTLOG_H_
