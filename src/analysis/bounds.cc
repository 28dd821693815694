#include "analysis/bounds.h"

#include <cstdio>
#include <cstring>
#include <optional>

#include "abi/abi.h"
#include "evm/evm.h"
#include "obs/metrics.h"
#include "support/log.h"

namespace onoff::analysis {

namespace {

std::string SelectorHex(uint32_t selector) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", selector);
  return std::string(buf);
}

}  // namespace

std::string GasBoundsChecker::Violation::ToString() const {
  return "gas bound violated: " + function + " observed " +
         std::to_string(observed_gas) + " > bound " +
         std::to_string(bound_gas);
}

GasBoundsChecker::GasBoundsChecker(AnalysisOptions options,
                                   evm::TraceHook* inner)
    : options_(std::move(options)), inner_(inner) {}

GasBoundsChecker::Bound GasBoundsChecker::CallBound(BytesView code,
                                                    BytesView calldata) {
  Hash32 key = Keccak256(code);
  auto it = call_cache_.find(key);
  if (it == call_cache_.end()) {
    it = call_cache_.emplace(key, AnalyzeProgram(code, options_)).first;
  }
  const AnalysisReport& report = it->second;

  // Resolve the dispatched function from the calldata selector; fall back to
  // the whole-program bound when there is no dispatch match.
  if (std::optional<uint32_t> selector = abi::SelectorWord(calldata)) {
    for (const FunctionReport& f : report.functions) {
      if (f.selector == *selector) return Bound{f.gas_bound, &f};
    }
  }
  return Bound{report.program_bound};
}

GasBoundsChecker::Bound GasBoundsChecker::CreateBound(BytesView init_code) {
  Hash32 key = Keccak256(init_code);
  auto it = deploy_cache_.find(key);
  if (it == deploy_cache_.end()) {
    it = deploy_cache_
             .emplace(key,
                      AnalyzeDeployment(init_code, options_).DeployGasBound())
             .first;
  }
  return Bound{it->second, nullptr, /*create=*/true};
}

std::optional<GasBoundsChecker::Violation> GasBoundsChecker::Check(
    const Bound& bound, uint64_t observed_gas) {
  static obs::Counter* checks = obs::GetCounterOrNull("trace.bounds_checks");
  static obs::Counter* violations =
      obs::GetCounterOrNull("trace.bounds_violations");
  if (checks != nullptr) checks->Inc();
  ++checks_;
  if (bound.gas.Covers(observed_gas)) return std::nullopt;

  if (violations != nullptr) violations->Inc();
  ++violations_;
  const FunctionReport* fn = bound.function;
  Violation v;
  v.function = bound.create      ? "(deploy)"
               : fn == nullptr   ? "(program)"
               : fn->name.empty() ? SelectorHex(fn->selector)
                                  : fn->name;
  v.observed_gas = observed_gas;
  v.bound_gas = bound.gas.gas;
  return v;
}

std::optional<GasBoundsChecker::Violation> GasBoundsChecker::CheckCall(
    BytesView code, BytesView calldata, uint64_t observed_gas) {
  return Check(CallBound(code, calldata), observed_gas);
}

void GasBoundsChecker::OnFrameEnter(const evm::FrameContext& frame) {
  if (inner_ != nullptr) inner_->OnFrameEnter(frame);
  // A precompile runs no bytecode, so there is nothing to bound: its frame
  // would meet the empty-code bound of 0 gas.
  if (frame.depth != 0 || std::strcmp(frame.kind, "PRECOMPILE") == 0) return;
  open_ = frame.IsCreate() ? CreateBound(frame.code)
                           : CallBound(frame.code, frame.input);
}

void GasBoundsChecker::OnFrameExit(const evm::FrameContext& frame,
                                   const evm::ExecResult& result,
                                   uint64_t gas_used) {
  if (inner_ != nullptr) inner_->OnFrameExit(frame, result, gas_used);
  if (frame.depth != 0 || !open_.has_value()) return;
  const Bound bound = *open_;
  open_.reset();
  // A failed frame used whatever its halt left it (an exceptional halt, the
  // whole allowance), so only a success is checked.
  if (!result.ok()) return;
  if (std::optional<Violation> v = Check(bound, gas_used)) {
    ONOFF_LOG(log::Level::kWarn, "analysis", "%s", v->ToString().c_str());
  }
}

void GasBoundsChecker::OnStep(const evm::StepContext& step) {
  if (inner_ != nullptr) inner_->OnStep(step);
}

}  // namespace onoff::analysis
