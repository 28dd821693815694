// The bounds check: an evm::TraceHook that compares the gas each
// transaction's outermost frame used against the static analyzer's
// worst-case bound. A violation means either the analyzer's bound is
// unsound or the execution escaped the analyzed envelope — both are bugs
// worth an alarm, which is exactly what the paper's pre-signing audit story
// needs to stay trustworthy.
//
// The bound is resolved when a depth-0 frame opens, from its code and input
// (DeployGasBound for a creation; a precompile frame opens none), and
// compared when the frame exits successfully with its gas minus gas left:
// the execution gas before the SSTORE refund, which a receipt's gas has
// already subtracted. Reports are cached by code hash. Like any hook, a
// checker observes one EVM at a time.

#ifndef ONOFFCHAIN_ANALYSIS_BOUNDS_H_
#define ONOFFCHAIN_ANALYSIS_BOUNDS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "analysis/analyzer.h"
#include "crypto/keccak.h"
#include "evm/trace_hook.h"
#include "support/bytes.h"

namespace onoff::analysis {

class GasBoundsChecker : public evm::TraceHook {
 public:
  // Every callback is forwarded to `inner` (e.g. a StructLogTracer) first,
  // since an Evm carries a single hook pointer.
  explicit GasBoundsChecker(AnalysisOptions options = {},
                            evm::TraceHook* inner = nullptr);
  GasBoundsChecker(const GasBoundsChecker&) = delete;
  GasBoundsChecker& operator=(const GasBoundsChecker&) = delete;

  struct Violation {
    std::string function;        // function name, hex selector, "(program)"
                                 // or "(deploy)"
    uint64_t observed_gas = 0;
    uint64_t bound_gas = 0;      // the (bounded) static bound that was beaten
    std::string ToString() const;
  };

  // Checks a message call into `code` with `calldata` that consumed
  // `observed_gas`. Returns a Violation iff the static bound for the
  // dispatched function (or the whole program when no selector matches) is
  // bounded and observed_gas exceeds it. Unbounded (⊤) bounds never violate.
  std::optional<Violation> CheckCall(BytesView code, BytesView calldata,
                                     uint64_t observed_gas);

  void OnFrameEnter(const evm::FrameContext& frame) override;
  // A violation is logged at warn and counted in trace.bounds_violations.
  void OnFrameExit(const evm::FrameContext& frame,
                   const evm::ExecResult& result, uint64_t gas_used) override;
  void OnStep(const evm::StepContext& step) override;

  uint64_t checks() const { return checks_; }
  uint64_t violations() const { return violations_; }

 private:
  struct Bound {
    GasBound gas;
    const FunctionReport* function = nullptr;  // into call_cache_
    bool create = false;
  };
  Bound CallBound(BytesView code, BytesView calldata);
  Bound CreateBound(BytesView init_code);
  std::optional<Violation> Check(const Bound& bound, uint64_t observed_gas);

  AnalysisOptions options_;
  evm::TraceHook* inner_;
  std::map<Hash32, AnalysisReport> call_cache_;  // by code hash
  std::map<Hash32, GasBound> deploy_cache_;      // by init-code hash
  // The bound of the open depth-0 frame.
  std::optional<Bound> open_;
  uint64_t checks_ = 0;
  uint64_t violations_ = 0;
};

}  // namespace onoff::analysis

#endif  // ONOFFCHAIN_ANALYSIS_BOUNDS_H_
