#include "trace/span_hook.h"

#include <string>

#include "evm/evm.h"

namespace onoff::trace {

void FrameSpanHook::OnFrameEnter(const evm::FrameContext& frame) {
  if (inner_ != nullptr) inner_->OnFrameEnter(frame);
  if (tracer_ == nullptr || !root_.valid()) return;
  const TraceContext& parent = stack_.empty() ? root_ : stack_.back();
  Args args;
  args.emplace_back("kind", frame.kind);
  args.emplace_back("self", frame.self.ToHex());
  args.emplace_back("gas", std::to_string(frame.gas));
  stack_.push_back(tracer_->BeginSpan(
      parent, frame.IsCreate() ? "evm.create" : "evm.call", "evm",
      std::move(args)));
}

void FrameSpanHook::OnFrameExit(const evm::FrameContext& frame,
                                const evm::ExecResult& result,
                                uint64_t gas_used) {
  if (inner_ != nullptr) inner_->OnFrameExit(frame, result, gas_used);
  if (tracer_ == nullptr || !root_.valid() || stack_.empty()) return;
  TraceContext ctx = stack_.back();
  stack_.pop_back();
  Args args;
  args.emplace_back("outcome", evm::OutcomeToString(result.outcome));
  args.emplace_back("gas_used", std::to_string(gas_used));
  tracer_->EndSpan(ctx, std::move(args));
}

void FrameSpanHook::OnStep(const evm::StepContext& step) {
  if (inner_ != nullptr) inner_->OnStep(step);
}

}  // namespace onoff::trace
