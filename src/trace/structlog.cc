#include "trace/structlog.h"

#include <algorithm>

#include "evm/evm.h"

namespace onoff::trace {

StructLogTracer::StructLogTracer(StructLogConfig config) : config_(config) {}

void StructLogTracer::PatchLastAtDepth(int depth, uint64_t gas_now) {
  if (depth < 0 || static_cast<size_t>(depth) >= last_record_at_depth_.size()) {
    return;
  }
  int64_t idx = last_record_at_depth_[depth];
  if (idx < 0) return;
  StructLogRecord& rec = records_[static_cast<size_t>(idx)];
  rec.gas_cost = rec.gas >= gas_now ? rec.gas - gas_now : 0;
}

void StructLogTracer::OnFrameEnter(const evm::FrameContext& frame) {
  CallFrame cf;
  cf.kind = frame.kind;
  cf.depth = frame.depth;
  cf.self = frame.self;
  cf.code_address = frame.code_address;
  cf.caller = frame.caller;
  cf.value = frame.value;
  cf.gas = frame.gas;
  cf.input_size = frame.input.size();
  cf.parent = open_frames_.empty() ? -1 : open_frames_.back();
  int index = static_cast<int>(frames_.size());
  if (cf.parent >= 0) frames_[cf.parent].children.push_back(index);
  frames_.push_back(std::move(cf));
  open_frames_.push_back(index);
  // A new frame at depth d must not patch across frames: forget any pending
  // record at that depth (its cost was settled by the previous frame's exit).
  if (static_cast<size_t>(frame.depth) >= last_record_at_depth_.size()) {
    last_record_at_depth_.resize(frame.depth + 1, -1);
  }
  last_record_at_depth_[frame.depth] = -1;
}

void StructLogTracer::OnFrameExit(const evm::FrameContext& frame,
                                  const evm::ExecResult& result,
                                  uint64_t gas_used) {
  // Settle the frame's final step: its cost is whatever the frame consumed
  // between that step and the exit.
  PatchLastAtDepth(frame.depth, result.gas_left);
  if (static_cast<size_t>(frame.depth) < last_record_at_depth_.size()) {
    last_record_at_depth_[frame.depth] = -1;
  }
  if (open_frames_.empty()) return;  // unbalanced exit; ignore defensively
  int index = open_frames_.back();
  open_frames_.pop_back();
  CallFrame& cf = frames_[index];
  cf.gas_used = gas_used;
  cf.outcome = evm::OutcomeToString(result.outcome);
  cf.output_size = result.output.size();
  uint64_t child_gas = 0;
  for (int child : cf.children) child_gas += frames_[child].gas_used;
  cf.gas_self = gas_used >= child_gas ? gas_used - child_gas : 0;
}

void StructLogTracer::OnStep(const evm::StepContext& step) {
  ++steps_seen_;
  // The previous instruction at this depth ran to completion: its cost is
  // the frame gas delta to this step.
  PatchLastAtDepth(step.depth, step.gas);
  if (records_.size() >= config_.max_records) {
    ++records_dropped_;
    if (static_cast<size_t>(step.depth) < last_record_at_depth_.size()) {
      last_record_at_depth_[step.depth] = -1;
    }
    return;
  }
  StructLogRecord rec;
  rec.pc = step.pc;
  rec.op = step.op_name;
  rec.gas = step.gas;
  rec.depth = step.depth;
  rec.memory_size = step.memory_size;
  if (config_.stack_top_k > 0 && step.stack != nullptr) {
    size_t n = std::min(config_.stack_top_k, step.stack_size);
    rec.stack_top.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rec.stack_top.push_back(step.stack[step.stack_size - 1 - i]);
    }
  }
  if (static_cast<size_t>(step.depth) >= last_record_at_depth_.size()) {
    last_record_at_depth_.resize(step.depth + 1, -1);
  }
  last_record_at_depth_[step.depth] =
      static_cast<int64_t>(records_.size());
  records_.push_back(std::move(rec));
}

uint64_t StructLogTracer::TotalGasUsed() const {
  uint64_t total = 0;
  for (const CallFrame& cf : frames_) {
    if (cf.parent == -1) total += cf.gas_used;
  }
  return total;
}

void StructLogTracer::Clear() {
  records_.clear();
  frames_.clear();
  open_frames_.clear();
  last_record_at_depth_.clear();
  steps_seen_ = 0;
  records_dropped_ = 0;
}

obs::Json StructLogTracer::ToJson() const {
  obs::Json logs = obs::Json::Array();
  for (const StructLogRecord& rec : records_) {
    obs::Json stack = obs::Json::Array();
    for (const U256& v : rec.stack_top) stack.Push(obs::Json::Str(v.ToHex()));
    obs::Json obj = obs::Json::Object();
    obj.Set("pc", obs::Json::Uint(rec.pc))
        .Set("op", obs::Json::Str(rec.op))
        .Set("gas", obs::Json::Uint(rec.gas))
        .Set("gasCost", obs::Json::Uint(rec.gas_cost))
        .Set("depth", obs::Json::Int(rec.depth))
        .Set("memSize", obs::Json::Uint(rec.memory_size))
        .Set("stack", std::move(stack));
    logs.Push(std::move(obj));
  }
  obs::Json frames = obs::Json::Array();
  for (const CallFrame& cf : frames_) {
    obs::Json children = obs::Json::Array();
    for (int child : cf.children) children.Push(obs::Json::Int(child));
    obs::Json obj = obs::Json::Object();
    obj.Set("kind", obs::Json::Str(cf.kind))
        .Set("depth", obs::Json::Int(cf.depth))
        .Set("self", obs::Json::Str(cf.self.ToHex()))
        .Set("code_address", obs::Json::Str(cf.code_address.ToHex()))
        .Set("caller", obs::Json::Str(cf.caller.ToHex()))
        .Set("value", obs::Json::Str(cf.value.ToHex()))
        .Set("gas", obs::Json::Uint(cf.gas))
        .Set("gas_used", obs::Json::Uint(cf.gas_used))
        .Set("gas_self", obs::Json::Uint(cf.gas_self))
        .Set("outcome", obs::Json::Str(cf.outcome))
        .Set("input_size", obs::Json::Uint(cf.input_size))
        .Set("output_size", obs::Json::Uint(cf.output_size))
        .Set("parent", obs::Json::Int(cf.parent))
        .Set("children", std::move(children));
    frames.Push(std::move(obj));
  }
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", obs::Json::Str("onoffchain-structlog-v1"))
      .Set("structLogs", std::move(logs))
      .Set("frames", std::move(frames));
  return doc;
}

}  // namespace onoff::trace
