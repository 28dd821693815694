// The interpreter core behind Evm::Call/Create: one Interpreter per call
// frame, with two dispatch loops over the same frame state.
//
//  - RunSwitch: the reference loop — one switch over the raw bytecode with
//    per-instruction counter/validity/stack/gas checks. This is the
//    semantic ground truth; structLog tracing always runs here because the
//    hook observes every step.
//  - RunThreaded: executes the fused cell stream from the CodeAnalysisCache
//    (analysis_cache.h) with per-basic-block hoisted checks and
//    computed-goto direct threading. Whenever a hoisted check fails the
//    block is doomed and the frame about to halt, so the loop re-enters
//    RunSwitch at the current pc and lets the reference loop produce the
//    exact outcome, gas and counters.
//
// A frame runs RunThreaded unless it has a step hook or a switch_only
// analysis, or its Evm was set to DispatchMode::kSwitch (evm.h).

#ifndef ONOFFCHAIN_EVM_INTERP_H_
#define ONOFFCHAIN_EVM_INTERP_H_

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "evm/analysis_cache.h"
#include "evm/evm.h"
#include "evm/gas.h"
#include "evm/opcodes.h"
#include "evm/trace_hook.h"
#include "obs/metrics.h"
#include "support/bytes.h"
#include "support/u256.h"

namespace onoff::evm {

// Per-opcode execution counters ("evm.opcode.<MNEMONIC>"), built once on
// first use; nullptr when metrics are disabled so the interpreter loop pays
// a single never-taken branch per instruction.
const std::array<obs::Counter*, 256>* OpcodeCounters();

// Pairs OnFrameEnter (constructor) with OnFrameExit (destructor) around a
// frame body, so every exit path — including exceptional halts — reports the
// frame's final result exactly once. `result` must outlive the scope and
// hold the frame's outcome by the time the scope closes. The frame's code
// and input views are cleared before the exit callback: the body may have
// moved or freed what they point at. When `hook` is null the scope costs
// two never-taken branches.
class FrameScope {
 public:
  FrameScope(TraceHook* hook, FrameContext& frame, const ExecResult* result)
      : hook_(hook), frame_(frame), result_(result) {
    if (hook_ != nullptr) hook_->OnFrameEnter(frame_);
  }
  ~FrameScope() {
    if (hook_ != nullptr) {
      frame_.code = {};
      frame_.input = {};
      hook_->OnFrameExit(frame_, *result_, frame_.gas - result_->gas_left);
    }
  }
  FrameScope(const FrameScope&) = delete;
  FrameScope& operator=(const FrameScope&) = delete;

 private:
  TraceHook* hook_;
  FrameContext& frame_;
  const ExecResult* result_;
};

// The operand stack: a fixed-capacity cache-aligned array with a
// one-past-top pointer, replacing std::vector<U256> so pushes and pops are
// single pointer bumps and binops can rewrite the top slot in place. The
// storage is left uninitialized (U256 is an implicit-lifetime type);
// capacity is exactly kMaxStack, and the interpreter's stack checks —
// per-instruction in the switch loop, per-block in the threaded loop —
// guarantee the Unsafe accessors stay in bounds.
class EvmStack {
 public:
  EvmStack()
      : base_(static_cast<U256*>(::operator new(
            sizeof(U256) * gas::kMaxStack, std::align_val_t{64}))),
        top_(base_) {}
  ~EvmStack() { ::operator delete(base_, std::align_val_t{64}); }
  EvmStack(const EvmStack&) = delete;
  EvmStack& operator=(const EvmStack&) = delete;

  size_t size() const { return static_cast<size_t>(top_ - base_); }
  bool empty() const { return top_ == base_; }

  // Bottom-first indexing (tracing and DUP in the reference loop).
  const U256& operator[](size_t i) const { return base_[i]; }
  const U256* data() const { return base_; }

  // `n`-th slot from the top, n = 0 being the top itself.
  U256& Peek(size_t n) { return *(top_ - 1 - n); }
  U256& Top() { return *(top_ - 1); }

  bool Push(const U256& v) {
    if (size() >= gas::kMaxStack) return false;
    *top_++ = v;
    return true;
  }
  bool Pop(U256* out) {
    if (top_ == base_) return false;
    *out = *--top_;
    return true;
  }

  // Unchecked fast paths for the threaded loop (bounds guaranteed by the
  // block-entry stack check).
  void PushUnsafe(const U256& v) { *top_++ = v; }
  U256 PopUnsafe() { return *--top_; }
  void Drop(size_t n) { top_ -= n; }

 private:
  U256* base_;
  U256* top_;
};

// One interpreter activation (a call frame).
class Interpreter {
 public:
  Interpreter(Evm* evm, Address code_addr, Address self, Address caller,
              U256 value, Bytes data, uint64_t gas, bool is_static, int depth,
              const Bytes* override_code = nullptr);

  ExecResult Run();

 private:
  // ---- Halting helpers ----
  ExecResult Halt(Outcome outcome) {
    ExecResult res;
    res.outcome = outcome;
    // Exceptional halts consume all remaining gas; REVERT/STOP keep it.
    if (outcome == Outcome::kSuccess || outcome == Outcome::kRevert) {
      res.gas_left = gas_;
    }
    if (outcome == Outcome::kSuccess) {
      res.refund = refund_;
      res.logs = std::move(logs_);
    }
    res.output = std::move(output_);
    return res;
  }

  // ---- Gas ----
  bool UseGas(uint64_t amount) {
    if (gas_ < amount) return false;
    gas_ -= amount;
    return true;
  }

  // ---- Memory ----
  // Charges expansion gas and resizes memory to cover [offset, offset+size).
  // Returns false on out-of-gas / absurd ranges. Size 0 never charges.
  bool Expand(const U256& offset, const U256& size, uint64_t* off_out,
              uint64_t* size_out);

  U256 LoadWord(uint64_t offset) {
    return U256::FromBigEndianTruncating(
        BytesView(memory_.data() + offset, 32));
  }
  void StoreWord(uint64_t offset, const U256& v);

  // Copies `size` bytes from src[src_off..] into memory at mem_off,
  // zero-padding reads past the end of src.
  void CopyToMemory(BytesView src, const U256& src_off, uint64_t mem_off,
                    uint64_t size);

  // ---- Dispatch loops ----
  // Reference loop, starting from the current pc_. Also the landing pad for
  // threaded-mode fallbacks.
  ExecResult RunSwitch();
  // Cell-stream loop over `analysis_`.
  ExecResult RunThreaded();
  // Credits the first `prefix_ops` opcodes of `blk` to the metrics
  // counters, then replays from `pc` on the reference loop (threaded-mode
  // hoisted-check failures and doomed blocks).
  ExecResult FallbackAt(size_t pc, const CodeBlock* blk, uint32_t prefix_ops);

  // ---- Sub-calls ----
  bool DoCall(Opcode op);
  bool DoCreate(Opcode op);

  Evm* evm_;
  state::StateView* world_;
  Address self_;
  Address caller_;
  U256 value_;
  Bytes data_;
  uint64_t gas_;
  bool is_static_;
  int depth_;
  TraceHook* hook_;

  Address code_addr_;
  bool has_override_ = false;
  Bytes code_;
  std::shared_ptr<const CodeAnalysis> analysis_;
  // Jumpdest bitmap the active loop validates against: the analysis' map in
  // threaded mode, a locally computed one otherwise.
  const std::vector<bool>* jumpdests_ = nullptr;
  std::vector<bool> own_jumpdests_;

  EvmStack stack_;
  Bytes memory_;
  Bytes return_data_;
  Bytes output_;
  std::vector<LogEntry> logs_;
  uint64_t refund_ = 0;
  size_t pc_ = 0;
  Outcome pending_halt_ = Outcome::kSuccess;
  bool halted_ = false;

  friend class ::onoff::evm::Evm;
};

}  // namespace onoff::evm

#endif  // ONOFFCHAIN_EVM_INTERP_H_
