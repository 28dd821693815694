#include "evm/evm.h"

#include <cassert>

#include "evm/interp.h"
#include "evm/precompiles.h"
#include "obs/metrics.h"
#include "rlp/rlp.h"

namespace onoff::evm {

const char* OutcomeToString(Outcome outcome) {
  switch (outcome) {
    case Outcome::kSuccess:
      return "Success";
    case Outcome::kRevert:
      return "Revert";
    case Outcome::kOutOfGas:
      return "OutOfGas";
    case Outcome::kInvalidInstruction:
      return "InvalidInstruction";
    case Outcome::kStackUnderflow:
      return "StackUnderflow";
    case Outcome::kStackOverflow:
      return "StackOverflow";
    case Outcome::kBadJumpDestination:
      return "BadJumpDestination";
    case Outcome::kStaticViolation:
      return "StaticViolation";
    case Outcome::kCallDepthExceeded:
      return "CallDepthExceeded";
    case Outcome::kInsufficientBalance:
      return "InsufficientBalance";
    case Outcome::kCodeSizeExceeded:
      return "CodeSizeExceeded";
  }
  return "Unknown";
}

Address Evm::ContractAddress(const Address& creator, uint64_t nonce) {
  std::vector<rlp::Item> fields;
  fields.push_back(rlp::Item::String(creator.view()));
  fields.push_back(rlp::Item::Scalar(nonce));
  Bytes enc = rlp::Encode(rlp::Item::List(std::move(fields)));
  Hash32 h = Keccak256(enc);
  auto addr = Address::FromBytes(BytesView(h.data() + 12, 20));
  assert(addr.ok());
  return *addr;
}

Address Evm::Create2Address(const Address& creator, const U256& salt,
                            const Bytes& init_code) {
  Hash32 code_hash = Keccak256(init_code);
  Bytes preimage;
  preimage.push_back(0xff);
  Append(preimage, creator.view());
  Bytes salt_bytes = salt.ToBytes();
  Append(preimage, salt_bytes);
  Append(preimage, BytesView(code_hash.data(), code_hash.size()));
  Hash32 h = Keccak256(preimage);
  auto addr = Address::FromBytes(BytesView(h.data() + 12, 20));
  assert(addr.ok());
  return *addr;
}

ExecResult Evm::Call(const CallMessage& msg) {
  static obs::Counter* calls = obs::GetCounterOrNull("evm.calls");
  static obs::Histogram* call_gas =
      obs::GetHistogramOrNull("evm.call_gas", obs::DefaultGasBuckets());
  ExecResult res = CallInternal(msg, 0);
  if (calls != nullptr) calls->Inc();
  if (call_gas != nullptr) {
    call_gas->Observe(static_cast<double>(msg.gas - res.gas_left));
  }
  return res;
}

ExecResult Evm::Create(const Address& caller, const U256& value,
                       const Bytes& init_code, uint64_t gas) {
  static obs::Counter* creates = obs::GetCounterOrNull("evm.creates");
  static obs::Histogram* create_gas =
      obs::GetHistogramOrNull("evm.create_gas", obs::DefaultGasBuckets());
  ExecResult res = CreateInternal(caller, value, init_code, gas, nullptr, 0);
  if (creates != nullptr) creates->Inc();
  if (create_gas != nullptr) {
    create_gas->Observe(static_cast<double>(gas - res.gas_left));
  }
  return res;
}

ExecResult Evm::CallInternal(const CallMessage& msg, int depth) {
  ExecResult res;
  if (depth > gas::kMaxCallDepth) {
    res.outcome = Outcome::kCallDepthExceeded;
    res.gas_left = msg.gas;
    return res;
  }
  if (world_->GetBalance(msg.caller) < msg.value) {
    res.outcome = Outcome::kInsufficientBalance;
    res.gas_left = msg.gas;
    return res;
  }

  FrameContext frame;
  if (trace_hook_ != nullptr) {
    frame.code = world_->GetCode(msg.to);
    frame.kind = IsPrecompile(msg.to) ? "PRECOMPILE"
                 : frame.code.empty() ? "TRANSFER"
                 : msg.is_static      ? "STATICCALL"
                                      : "CALL";
    frame.depth = depth;
    frame.self = msg.to;
    frame.code_address = msg.to;
    frame.caller = msg.caller;
    frame.value = msg.value;
    frame.gas = msg.gas;
    frame.input = msg.data;
  }
  FrameScope frame_scope(trace_hook_, frame, &res);

  auto snapshot = world_->TakeSnapshot();
  if (!msg.value.IsZero()) {
    Status st = world_->Transfer(msg.caller, msg.to, msg.value);
    assert(st.ok());
    (void)st;
  }

  if (auto pre = RunPrecompile(msg.to, msg.data, msg.gas)) {
    if (pre->success) {
      res.outcome = Outcome::kSuccess;
      res.output = std::move(pre->output);
      res.gas_left = msg.gas - pre->gas_cost;
    } else {
      res.outcome = Outcome::kOutOfGas;
      world_->RevertToSnapshot(snapshot);
    }
    return res;
  }

  const Bytes& code = world_->GetCode(msg.to);
  if (code.empty()) {
    // Plain transfer.
    res.outcome = Outcome::kSuccess;
    res.gas_left = msg.gas;
    return res;
  }

  Interpreter interp(this, msg.to, msg.to, msg.caller, msg.value, msg.data,
                     msg.gas, msg.is_static, depth);
  res = interp.Run();
  if (!res.ok()) world_->RevertToSnapshot(snapshot);
  return res;
}

ExecResult Evm::CreateInternal(const Address& caller, const U256& value,
                               const Bytes& init_code, uint64_t gas,
                               const U256* salt, int depth) {
  ExecResult res;
  if (depth > gas::kMaxCallDepth) {
    res.outcome = Outcome::kCallDepthExceeded;
    res.gas_left = gas;
    return res;
  }
  if (world_->GetBalance(caller) < value) {
    res.outcome = Outcome::kInsufficientBalance;
    res.gas_left = gas;
    return res;
  }

  uint64_t nonce = world_->GetNonce(caller);
  Address new_addr = salt != nullptr
                         ? Create2Address(caller, *salt, init_code)
                         : ContractAddress(caller, nonce);
  world_->IncrementNonce(caller);

  // Address collision (existing code or nonce) is an exceptional failure.
  if (!world_->GetCode(new_addr).empty() || world_->GetNonce(new_addr) != 0) {
    res.outcome = Outcome::kInvalidInstruction;
    return res;
  }

  FrameContext frame;
  if (trace_hook_ != nullptr) {
    frame.kind = salt != nullptr ? "CREATE2" : "CREATE";
    frame.depth = depth;
    frame.self = new_addr;
    frame.code_address = new_addr;
    frame.caller = caller;
    frame.value = value;
    frame.gas = gas;
    frame.code = init_code;
    frame.input = init_code;
  }
  FrameScope frame_scope(trace_hook_, frame, &res);

  auto snapshot = world_->TakeSnapshot();
  world_->CreateAccount(new_addr);
  world_->SetNonce(new_addr, 1);  // EIP-161
  if (!value.IsZero()) {
    Status st = world_->Transfer(caller, new_addr, value);
    assert(st.ok());
    (void)st;
  }

  Interpreter interp(this, new_addr, new_addr, caller, value, Bytes{}, gas,
                     /*is_static=*/false, depth, &init_code);
  ExecResult init_res = interp.Run();

  if (init_res.outcome == Outcome::kRevert) {
    world_->RevertToSnapshot(snapshot);
    init_res.created = Address();
    res = std::move(init_res);
    return res;
  }
  if (!init_res.ok()) {
    world_->RevertToSnapshot(snapshot);
    res = std::move(init_res);
    return res;
  }

  // Deposit the returned runtime code.
  const Bytes& deployed = init_res.output;
  if (deployed.size() > gas::kMaxCodeSize) {
    world_->RevertToSnapshot(snapshot);
    res.outcome = Outcome::kCodeSizeExceeded;
    return res;
  }
  uint64_t deposit_cost = gas::kCodeDeposit * deployed.size();
  if (init_res.gas_left < deposit_cost) {
    world_->RevertToSnapshot(snapshot);
    res.outcome = Outcome::kOutOfGas;
    return res;
  }
  world_->SetCode(new_addr, deployed);

  res.outcome = Outcome::kSuccess;
  res.gas_left = init_res.gas_left - deposit_cost;
  res.refund = init_res.refund;
  res.logs = std::move(init_res.logs);
  res.created = new_addr;
  return res;
}

}  // namespace onoff::evm
