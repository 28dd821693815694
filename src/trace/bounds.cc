#include "trace/bounds.h"

#include <cstdio>
#include <optional>

#include "abi/abi.h"
#include "obs/metrics.h"

namespace onoff::trace {

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

GasBoundsChecker::GasBoundsChecker(analysis::AnalysisOptions options)
    : options_(std::move(options)) {}

const analysis::AnalysisReport& GasBoundsChecker::ReportFor(
    const Bytes& code) {
  Hash32 key = Keccak256(code);
  auto it = call_cache_.find(key);
  if (it == call_cache_.end()) {
    it = call_cache_.emplace(key, analysis::AnalyzeProgram(code, options_))
             .first;
  }
  return it->second;
}

const analysis::DeploymentReport& GasBoundsChecker::DeployReportFor(
    const Bytes& init_code) {
  Hash32 key = Keccak256(init_code);
  auto it = deploy_cache_.find(key);
  if (it == deploy_cache_.end()) {
    it = deploy_cache_
             .emplace(key, analysis::AnalyzeDeployment(init_code, options_))
             .first;
  }
  return it->second;
}

std::optional<GasBoundsChecker::Violation> GasBoundsChecker::Record(
    std::optional<Violation> violation) {
  static obs::Counter* checks = obs::GetCounterOrNull("trace.bounds_checks");
  static obs::Counter* violations =
      obs::GetCounterOrNull("trace.bounds_violations");
  if (checks != nullptr) checks->Inc();
  ++checks_;
  if (violation.has_value()) {
    if (violations != nullptr) violations->Inc();
    ++violations_;
  }
  return violation;
}

std::optional<GasBoundsChecker::Violation> GasBoundsChecker::CheckCall(
    const Bytes& code, const Bytes& calldata, uint64_t observed_gas) {
  std::lock_guard<std::mutex> lock(mu_);
  const analysis::AnalysisReport& report = ReportFor(code);

  // Resolve the dispatched function from the calldata selector; fall back to
  // the whole-program bound when there is no dispatch match.
  const analysis::FunctionReport* fn = nullptr;
  if (std::optional<uint32_t> selector = abi::SelectorWord(calldata)) {
    for (const analysis::FunctionReport& f : report.functions) {
      if (f.selector == *selector) {
        fn = &f;
        break;
      }
    }
  }

  const analysis::GasBound& bound =
      fn != nullptr ? fn->gas_bound : report.program_bound;
  if (bound.Covers(observed_gas)) return Record(std::nullopt);

  Violation v;
  v.selector = fn != nullptr ? fn->selector : 0;
  v.function = fn != nullptr
                   ? (fn->name.empty() ? SelectorHex(fn->selector) : fn->name)
                   : "(program)";
  v.observed_gas = observed_gas;
  v.bound_gas = bound.gas;
  return Record(v);
}

std::optional<GasBoundsChecker::Violation> GasBoundsChecker::CheckCreate(
    const Bytes& init_code, uint64_t observed_gas) {
  std::lock_guard<std::mutex> lock(mu_);
  const analysis::DeploymentReport& report = DeployReportFor(init_code);
  analysis::GasBound bound = report.DeployGasBound();
  if (bound.Covers(observed_gas)) return Record(std::nullopt);

  Violation v;
  v.function = "(deploy)";
  v.observed_gas = observed_gas;
  v.bound_gas = bound.gas;
  return Record(v);
}

uint64_t GasBoundsChecker::checks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checks_;
}

uint64_t GasBoundsChecker::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

}  // namespace onoff::trace
