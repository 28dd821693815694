#include "onoff/split_contract.h"

#include "abi/abi.h"
#include "evm/opcodes.h"

namespace onoff::core {

using contracts::ContractWriter;
using evm::Opcode;

namespace {

constexpr std::string_view kSubmitSig = "submitResult(uint256)";
constexpr std::string_view kFinalizeSig = "finalizeResult()";
constexpr std::string_view kEnforceSig = "enforceResult(uint256)";
constexpr std::string_view kReturnSig = "returnDisputeResolution(address)";

std::vector<const FunctionDef*> Select(const std::vector<FunctionDef>& fns,
                                       bool heavy) {
  std::vector<const FunctionDef*> out;
  for (const FunctionDef& f : fns) {
    if (f.heavy == heavy) out.push_back(&f);
  }
  return out;
}

}  // namespace

std::string DeploySignatureFor(size_t n) {
  std::string sig = "deployVerifiedInstance(bytes";
  for (size_t i = 0; i < n; ++i) sig += ",uint8,bytes32,bytes32";
  sig += ")";
  return sig;
}

Result<SplitContracts> SplitContract(
    const SplitConfig& cfg, const std::vector<FunctionDef>& functions) {
  auto light = Select(functions, false);
  auto heavy = Select(functions, true);
  if (cfg.participants.size() < 2) {
    return Status::InvalidArgument("need at least two participants");
  }
  if (heavy.empty()) {
    return Status::InvalidArgument(
        "splitting requires at least one heavy/private function");
  }
  if (cfg.resolver_index < 0 ||
      cfg.resolver_index >= static_cast<int>(heavy.size())) {
    return Status::InvalidArgument("resolver_index out of range");
  }
  const std::string deploy_sig = DeploySignatureFor(cfg.participants.size());

  SplitContracts out;

  // ---------- On-chain contract ----------
  {
    ContractWriter w;
    std::vector<ContractWriter::Label> light_labels;
    for (const FunctionDef* f : light) {
      light_labels.push_back(w.Declare(f->signature));
      out.onchain_signatures.push_back(f->signature);
    }
    auto f_submit = w.Declare(kSubmitSig);
    auto f_finalize = w.Declare(kFinalizeSig);
    auto f_deploy = w.Declare(deploy_sig);
    auto f_enforce = w.Declare(kEnforceSig);
    out.onchain_signatures.insert(
        out.onchain_signatures.end(),
        {std::string(kSubmitSig), std::string(kFinalizeSig), deploy_sig,
         std::string(kEnforceSig)});
    w.FinishDispatch();

    for (size_t i = 0; i < light.size(); ++i) {
      w.BeginFunction(light_labels[i]);
      light[i]->body(w);
      w.EndFunctionStop();
    }

    // submitResult(uint256): participantOnly; only while no result is final
    // and nothing is pending.
    w.BeginFunction(f_submit);
    w.RequireCallerIsOneOf(cfg.participants);
    w.SLoad(U256(split_slots::kResultReady));
    w.RequireNot();
    w.SLoad(U256(split_slots::kProposedAt));
    w.RequireNot();
    w.PushArg(0);
    w.SStore(U256(split_slots::kProposedResult));
    w.PushTimestamp();
    w.SStore(U256(split_slots::kProposedAt));
    w.EndFunctionStop();

    // finalizeResult(): anyone; after the challenge period elapses.
    w.BeginFunction(f_finalize);
    w.SLoad(U256(split_slots::kResultReady));
    w.RequireNot();
    w.SLoad(U256(split_slots::kProposedAt));
    w.b().Op(Opcode::DUP1);
    w.Require();  // a proposal must exist
    // require(timestamp >= proposedAt + challenge_period)
    w.PushU(U256(cfg.challenge_period_seconds));
    w.b().Op(Opcode::ADD);           // [deadline]
    w.PushTimestamp();               // [deadline, now]
    w.b().Op(Opcode::LT);            // now < deadline ? (LT pops now, deadline)
    w.RequireNot();
    w.SLoad(U256(split_slots::kProposedResult));
    w.SStore(U256(split_slots::kFinalResult));
    w.PushU(U256(1));
    w.SStore(U256(split_slots::kResultReady));
    w.EndFunctionStop();

    // deployVerifiedInstance(...): the challenge weapon.
    w.BeginFunction(f_deploy);
    w.RequireCallerIsOneOf(cfg.participants);
    w.SLoad(U256(split_slots::kResultReady));
    w.RequireNot();
    w.SLoad(U256(split_slots::kDeployedAddr));
    w.RequireNot();
    contracts::EmitStageBytesArg0(w);
    for (size_t i = 0; i < cfg.participants.size(); ++i) {
      contracts::EmitEcrecoverRequire(w, 1 + 3 * static_cast<int>(i),
                                      cfg.participants[i]);
    }
    contracts::EmitCreateFromStagedBytes(w);
    w.SStore(U256(split_slots::kDeployedAddr));
    w.EndFunctionStop();

    // enforceResult(uint256): only the verified instance; overrides any
    // unfinalized proposal and finalizes immediately.
    w.BeginFunction(f_enforce);
    contracts::EmitRequireCallerIsStored(w, U256(split_slots::kDeployedAddr));
    w.SLoad(U256(split_slots::kResultReady));
    w.RequireNot();
    w.PushArg(0);
    w.SStore(U256(split_slots::kFinalResult));
    w.PushU(U256(1));
    w.SStore(U256(split_slots::kResultReady));
    w.EndFunctionStop();

    ONOFF_ASSIGN_OR_RETURN(out.onchain_runtime, w.BuildRuntime());
    out.onchain_init = contracts::WrapDeployer(out.onchain_runtime);
  }

  // ---------- Off-chain contract ----------
  {
    ContractWriter w;
    std::vector<ContractWriter::Label> heavy_labels;
    for (const FunctionDef* f : heavy) {
      heavy_labels.push_back(w.Declare(f->signature));
      out.offchain_signatures.push_back(f->signature);
    }
    auto f_return = w.Declare(kReturnSig);
    out.offchain_signatures.push_back(std::string(kReturnSig));
    w.FinishDispatch();

    for (size_t i = 0; i < heavy.size(); ++i) {
      w.BeginFunction(heavy_labels[i]);
      heavy[i]->body(w);
      w.EndFunctionReturnWord();
    }

    // returnDisputeResolution(address): recompute the resolver's result and
    // push it into the on-chain contract.
    w.BeginFunction(f_return);
    w.RequireCallerIsOneOf(cfg.participants);
    heavy[cfg.resolver_index]->body(w);  // [result]
    contracts::EmitEnforceCallback(w, kEnforceSig);
    w.EndFunctionStop();

    ONOFF_ASSIGN_OR_RETURN(out.offchain_runtime, w.BuildRuntime());
    out.offchain_init = contracts::WrapDeployer(out.offchain_runtime);
  }

  // ---------- Machine-checked classification ----------
  // The generator's promise is exactly what the analyzer can verify: every
  // light entry point fits under the block gas limit, and no heavy/private
  // body can leak into public state.
  {
    analysis::AnalysisOptions& on = out.onchain_audit;
    for (const FunctionDef* f : light) {
      on.light_selectors.push_back(abi::SelectorWord(f->signature));
    }
    // deployVerifiedInstance is exempt: CREATE of the verified instance is
    // legitimately unbounded from the analyzer's point of view.
    on.light_selectors.push_back(abi::SelectorWord(kSubmitSig));
    on.light_selectors.push_back(abi::SelectorWord(kFinalizeSig));
    on.light_selectors.push_back(abi::SelectorWord(kEnforceSig));
    for (const std::string& sig : out.onchain_signatures) {
      on.function_names[abi::SelectorWord(sig)] = sig;
    }
    analysis::AnalysisReport report =
        analysis::AnalyzeProgram(out.onchain_runtime, on);
    if (report.HasErrors()) {
      return Status::AnalysisRejected(
          "generated on-chain contract failed verification: " +
          report.FirstError());
    }

    analysis::AnalysisOptions& off = out.offchain_audit;
    for (const FunctionDef* f : heavy) {
      off.private_selectors.push_back(abi::SelectorWord(f->signature));
    }
    // returnDisputeResolution deliberately CALLs the on-chain contract; it
    // is the one sanctioned state-touching path and stays unclassified.
    for (const std::string& sig : out.offchain_signatures) {
      off.function_names[abi::SelectorWord(sig)] = sig;
    }
    report = analysis::AnalyzeProgram(out.offchain_runtime, off);
    if (report.HasErrors()) {
      return Status::AnalysisRejected(
          "generated off-chain contract failed verification: " +
          report.FirstError());
    }
  }

  return out;
}

Result<Bytes> BuildWholeContract(const std::vector<FunctionDef>& functions) {
  ContractWriter w;
  std::vector<ContractWriter::Label> labels;
  for (const FunctionDef& f : functions) {
    labels.push_back(w.Declare(f.signature));
  }
  w.FinishDispatch();
  for (size_t i = 0; i < functions.size(); ++i) {
    w.BeginFunction(labels[i]);
    functions[i].body(w);
    if (functions[i].heavy) {
      // The heavy result is the contract's result: store and finalize.
      w.SStore(U256(split_slots::kFinalResult));
      w.PushU(U256(1));
      w.SStore(U256(split_slots::kResultReady));
    }
    w.EndFunctionStop();
  }
  ONOFF_ASSIGN_OR_RETURN(Bytes runtime, w.BuildRuntime());
  return contracts::WrapDeployer(runtime);
}

Bytes SubmitResultCalldata(const U256& result) {
  return abi::EncodeCall(kSubmitSig, {abi::Value::Uint(result)});
}

Bytes FinalizeResultCalldata() { return abi::EncodeCall(kFinalizeSig, {}); }

Result<Bytes> DeployVerifiedInstanceCalldata(const SignedCopy& copy,
                                             const SplitConfig& config) {
  std::vector<abi::Value> args;
  args.push_back(abi::Value::DynBytes(copy.bytecode()));
  for (const Address& participant : config.participants) {
    ONOFF_ASSIGN_OR_RETURN(secp256k1::Signature sig,
                           copy.SignatureOf(participant));
    args.push_back(abi::Value::Uint(sig.v));
    args.push_back(abi::Value::Bytes32(sig.r));
    args.push_back(abi::Value::Bytes32(sig.s));
  }
  return abi::EncodeCall(DeploySignatureFor(config.participants.size()), args);
}

Bytes ReturnDisputeResolutionCalldata(const Address& onchain_addr) {
  return abi::EncodeCall(kReturnSig, {abi::Value::Addr(onchain_addr)});
}

Bytes EnforceResultCalldata(const U256& result) {
  return abi::EncodeCall(kEnforceSig, {abi::Value::Uint(result)});
}

}  // namespace onoff::core
