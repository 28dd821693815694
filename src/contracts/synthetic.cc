#include "contracts/synthetic.h"

#include <string>

#include "abi/abi.h"
#include "contracts/codegen.h"
#include "crypto/keccak.h"
#include "evm/opcodes.h"

namespace onoff::contracts {

using evm::Opcode;

namespace {

std::string LightSig(int i) { return "light" + std::to_string(i) + "()"; }
std::string HeavySig(int i) { return "heavy" + std::to_string(i) + "()"; }
constexpr std::string_view kSubmitSig = "submitResult(uint256,uint256)";

void EmitLightBody(ContractWriter& w, int i) {
  w.PushU(U256(static_cast<uint64_t>(i) + 1));
  w.SStore(U256(synthetic_slots::kLightBase + static_cast<uint64_t>(i)));
  w.EndFunctionStop();
}

}  // namespace

Result<Bytes> BuildWholeRuntime(const SyntheticConfig& cfg) {
  ContractWriter w;
  std::vector<ContractWriter::Label> light_labels;
  std::vector<ContractWriter::Label> heavy_labels;
  for (int i = 0; i < cfg.num_light; ++i) {
    light_labels.push_back(w.Declare(LightSig(i)));
  }
  for (int i = 0; i < cfg.num_heavy; ++i) {
    heavy_labels.push_back(w.Declare(HeavySig(i)));
  }
  w.FinishDispatch();
  for (int i = 0; i < cfg.num_light; ++i) {
    w.BeginFunction(light_labels[i]);
    EmitLightBody(w, i);
  }
  for (int i = 0; i < cfg.num_heavy; ++i) {
    w.BeginFunction(heavy_labels[i]);
    EmitKeccakChain(w, {U256(static_cast<uint64_t>(i))},
                    cfg.heavy_iterations);
    w.SStore(U256(synthetic_slots::kHeavyBase + static_cast<uint64_t>(i)));
    w.EndFunctionStop();
  }
  return w.BuildRuntime();
}

Result<Bytes> BuildWholeInit(const SyntheticConfig& cfg) {
  ONOFF_ASSIGN_OR_RETURN(Bytes runtime, BuildWholeRuntime(cfg));
  return WrapDeployer(runtime);
}

Result<Bytes> BuildHybridOnChainRuntime(const SyntheticConfig& cfg) {
  ContractWriter w;
  std::vector<ContractWriter::Label> light_labels;
  for (int i = 0; i < cfg.num_light; ++i) {
    light_labels.push_back(w.Declare(LightSig(i)));
  }
  auto submit = w.Declare(kSubmitSig);
  w.FinishDispatch();
  for (int i = 0; i < cfg.num_light; ++i) {
    w.BeginFunction(light_labels[i]);
    EmitLightBody(w, i);
  }
  // submitResult(uint256 index, uint256 value): sstore(kHeavyBase+index, value)
  w.BeginFunction(submit);
  w.PushArg(0);                               // index
  w.PushU(U256(synthetic_slots::kHeavyBase));
  w.b().Op(Opcode::ADD);                      // [slot]
  w.PushArg(1);                               // [slot, value]
  w.SStoreDynamic();
  w.EndFunctionStop();
  return w.BuildRuntime();
}

Result<Bytes> BuildHybridOnChainInit(const SyntheticConfig& cfg) {
  ONOFF_ASSIGN_OR_RETURN(Bytes runtime, BuildHybridOnChainRuntime(cfg));
  return WrapDeployer(runtime);
}

Result<Bytes> BuildHybridOffChainRuntime(const SyntheticConfig& cfg) {
  ContractWriter w;
  std::vector<ContractWriter::Label> heavy_labels;
  for (int i = 0; i < cfg.num_heavy; ++i) {
    heavy_labels.push_back(w.Declare(HeavySig(i)));
  }
  w.FinishDispatch();
  for (int i = 0; i < cfg.num_heavy; ++i) {
    w.BeginFunction(heavy_labels[i]);
    EmitKeccakChain(w, {U256(static_cast<uint64_t>(i))},
                    cfg.heavy_iterations);
    w.EndFunctionReturnWord();
  }
  return w.BuildRuntime();
}

Result<Bytes> BuildHybridOffChainInit(const SyntheticConfig& cfg) {
  ONOFF_ASSIGN_OR_RETURN(Bytes runtime, BuildHybridOffChainRuntime(cfg));
  return WrapDeployer(runtime);
}

Bytes LightCalldata(int i) { return abi::EncodeCall(LightSig(i), {}); }
Bytes HeavyCalldata(int i) { return abi::EncodeCall(HeavySig(i), {}); }

Bytes SubmitResultCalldata(int i, const U256& value) {
  return abi::EncodeCall(
      kSubmitSig,
      {abi::Value::Uint(static_cast<uint64_t>(i)), abi::Value::Uint(value)});
}

U256 NativeHeavyResult(int i, uint64_t iterations) {
  Hash32 h = Keccak256(U256(static_cast<uint64_t>(i)).ToBytes());
  for (uint64_t k = 0; k < iterations; ++k) {
    h = Keccak256(BytesView(h.data(), h.size()));
  }
  return U256::FromBigEndianTruncating(BytesView(h.data(), h.size()));
}

}  // namespace onoff::contracts
