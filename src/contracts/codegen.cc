#include "contracts/codegen.h"

#include <cassert>

namespace onoff::contracts {

using evm::Opcode;

Bytes WrapDeployer(const Bytes& runtime) {
  // PUSH2 len PUSH2 off PUSH1 0 CODECOPY PUSH2 len PUSH1 0 RETURN <runtime>
  // All widths fixed so the prologue size (15 bytes) is known up front.
  constexpr size_t kPrologue = 15;
  assert(runtime.size() <= 0xffff);
  easm::CodeBuilder b;
  b.PushN(2, U256(runtime.size()));
  b.PushN(2, U256(kPrologue));
  b.PushN(1, U256(0));
  b.Op(Opcode::CODECOPY);
  b.PushN(2, U256(runtime.size()));
  b.PushN(1, U256(0));
  b.Op(Opcode::RETURN);
  b.Raw(runtime);
  auto out = b.Build();
  assert(out.ok());
  return *out;
}

ContractWriter::ContractWriter() {
  // Load the 4-byte selector: calldataload(0) >> 224.
  builder_.Push(uint64_t{0});
  builder_.Op(Opcode::CALLDATALOAD);
  builder_.Push(uint64_t{224});
  builder_.Op(Opcode::SHR);
}

ContractWriter::Label ContractWriter::Declare(std::string_view signature) {
  assert(!dispatch_finished_);
  abi::Selector sel = abi::SelectorOf(signature);
  Label label = builder_.NewLabel();
  U256 sel_value = U256::FromBigEndianTruncating(BytesView(sel.data(), 4));
  builder_.Op(Opcode::DUP1);
  builder_.PushN(4, sel_value);
  builder_.Op(Opcode::EQ);
  builder_.PushLabel(label);
  builder_.Op(Opcode::JUMPI);
  functions_.emplace_back(sel, label);
  return label;
}

void ContractWriter::FinishDispatch() {
  assert(!dispatch_finished_);
  dispatch_finished_ = true;
  Revert();
}

void ContractWriter::BeginFunction(Label label) {
  assert(dispatch_finished_);
  builder_.Bind(label);
  builder_.Op(Opcode::POP);  // drop the selector left by the dispatcher
}

void ContractWriter::EndFunctionStop() { builder_.Op(Opcode::STOP); }

void ContractWriter::EndFunctionReturnWord() {
  // Stack: ... value
  builder_.Push(uint64_t{0});
  builder_.Op(Opcode::MSTORE);
  builder_.Push(uint64_t{32});
  builder_.Push(uint64_t{0});
  builder_.Op(Opcode::RETURN);
}

void ContractWriter::PushU(const U256& v) { builder_.Push(v); }

void ContractWriter::PushAddress(const Address& a) {
  builder_.PushN(20, a.ToWord());
}

void ContractWriter::PushCaller() { builder_.Op(Opcode::CALLER); }
void ContractWriter::PushCallValue() { builder_.Op(Opcode::CALLVALUE); }
void ContractWriter::PushTimestamp() { builder_.Op(Opcode::TIMESTAMP); }

void ContractWriter::PushArg(int index) {
  builder_.Push(uint64_t{4} + 32 * static_cast<uint64_t>(index));
  builder_.Op(Opcode::CALLDATALOAD);
}

void ContractWriter::SLoad(const U256& slot) {
  builder_.Push(slot);
  builder_.Op(Opcode::SLOAD);
}

void ContractWriter::SStore(const U256& slot) {
  // Stack: ... value. SSTORE pops the key from the top, so pushing the slot
  // last leaves exactly [value, slot] as required.
  builder_.Push(slot);
  builder_.Op(Opcode::SSTORE);
}

void ContractWriter::SStoreDynamic() {
  // Stack: ... slot value; SSTORE pops key first.
  builder_.Op(Opcode::SWAP1);
  builder_.Op(Opcode::SSTORE);
}

void ContractWriter::Require() {
  Label ok = builder_.NewLabel();
  builder_.PushLabel(ok);
  builder_.Op(Opcode::JUMPI);
  Revert();
  builder_.Bind(ok);
}

void ContractWriter::RequireNot() {
  builder_.Op(Opcode::ISZERO);
  Require();
}

void ContractWriter::Revert() {
  builder_.Push(uint64_t{0});
  builder_.Push(uint64_t{0});
  builder_.Op(Opcode::REVERT);
}

void ContractWriter::CallerIs(const Address& a) {
  PushCaller();
  PushAddress(a);
  builder_.Op(Opcode::EQ);
}

void ContractWriter::RequireCallerIsEither(const Address& a,
                                           const Address& b) {
  CallerIs(a);
  CallerIs(b);
  builder_.Op(Opcode::OR);
  Require();
}

void ContractWriter::RequireCallerIsOneOf(const std::vector<Address>& addrs) {
  assert(!addrs.empty());
  CallerIs(addrs[0]);
  for (size_t i = 1; i < addrs.size(); ++i) {
    CallerIs(addrs[i]);
    builder_.Op(Opcode::OR);
  }
  Require();
}

void ContractWriter::RequireBefore(uint64_t t) {
  PushTimestamp();
  PushU(U256(t));
  builder_.Op(Opcode::GT);  // t > timestamp
  Require();
}

void ContractWriter::RequireAtOrAfter(uint64_t t) {
  PushTimestamp();
  PushU(U256(t));
  builder_.Op(Opcode::GT);  // t > timestamp means too early
  RequireNot();
}

void ContractWriter::TransferEther() {
  // Stack in: ... to amount  (amount on top).
  // Emits CALL(gas=0 (+2300 stipend), to, value=amount, in=0/0, out=0/0) and
  // requires success. Operands are staged through the scratch words at
  // memory 0x00/0x20 to keep the stack choreography trivial.
  builder_.Push(uint64_t{0x00});
  builder_.Op(Opcode::MSTORE);  // mem[0x00] = amount; stack: ... to
  builder_.Push(uint64_t{0x20});
  builder_.Op(Opcode::MSTORE);  // mem[0x20] = to; stack: ...
  builder_.Push(uint64_t{0});   // out_size
  builder_.Push(uint64_t{0});   // out_off
  builder_.Push(uint64_t{0});   // in_size
  builder_.Push(uint64_t{0});   // in_off
  builder_.Push(uint64_t{0x00});
  builder_.Op(Opcode::MLOAD);   // value
  builder_.Push(uint64_t{0x20});
  builder_.Op(Opcode::MLOAD);   // to
  builder_.Push(uint64_t{0});   // gas (stipend covers an EOA receive)
  builder_.Op(Opcode::CALL);
  Require();
}

void EmitKeccakChain(ContractWriter& w, std::initializer_list<U256> seed,
                     uint64_t iterations) {
  uint64_t offset = 0;
  for (const U256& word : seed) {
    w.PushU(word);
    w.PushU(U256(offset));
    w.b().Op(Opcode::MSTORE);
    offset += 0x20;
  }
  w.PushU(U256(offset));
  w.PushU(U256(0x00));
  w.b().Op(Opcode::SHA3);          // [h]
  w.PushU(U256(iterations));       // [h, n]
  auto loop = w.NewLabel();
  auto end = w.NewLabel();
  w.Bind(loop);
  w.b().Op(Opcode::DUP1);
  w.b().Op(Opcode::ISZERO);
  w.b().PushLabel(end);
  w.b().Op(Opcode::JUMPI);
  // n -= 1
  w.PushU(U256(1));
  w.b().Op(Opcode::SWAP1);
  w.b().Op(Opcode::SUB);           // [h, n-1]
  w.b().Op(Opcode::SWAP1);         // [n-1, h]
  w.PushU(U256(0x00));
  w.b().Op(Opcode::MSTORE);        // [n-1]
  w.PushU(U256(0x20));
  w.PushU(U256(0x00));
  w.b().Op(Opcode::SHA3);          // [n-1, h']
  w.b().Op(Opcode::SWAP1);         // [h', n-1]
  w.b().PushLabel(loop);
  w.b().Op(Opcode::JUMP);
  w.Bind(end);
  w.b().Op(Opcode::POP);           // [h]
}

void EmitStageBytesArg0(ContractWriter& w) {
  w.PushArg(0);                        // relative offset of `bytes`
  w.PushU(U256(4));
  w.b().Op(Opcode::ADD);               // [abs] (position of the length word)
  w.b().Op(Opcode::DUP1);
  w.b().Op(Opcode::CALLDATALOAD);      // [abs, len]
  w.b().Op(Opcode::DUP1);              // [abs, len, len]
  w.b().Op(Opcode::SWAP2);             // [len, len, abs]
  w.PushU(U256(32));
  w.b().Op(Opcode::ADD);               // [len, len, data_off]
  w.PushU(U256(dispute_mem::kBytecodeAt));
  w.b().Op(Opcode::CALLDATACOPY);      // [len]
  w.b().Op(Opcode::DUP1);              // [len, len]
  w.PushU(U256(dispute_mem::kBytecodeAt));
  w.b().Op(Opcode::SHA3);              // [len, hash]
  w.PushU(U256(dispute_mem::kEcInput));
  w.b().Op(Opcode::MSTORE);            // [len]
}

void EmitEcrecoverRequire(ContractWriter& w, int arg_base,
                          const Address& expected) {
  // Clear the output word so a failed recover cannot alias a stale value.
  w.PushU(U256(0));
  w.PushU(U256(dispute_mem::kEcOutput));
  w.b().Op(Opcode::MSTORE);
  w.PushArg(arg_base);      // v
  w.PushU(U256(dispute_mem::kEcInput + 0x20));
  w.b().Op(Opcode::MSTORE);
  w.PushArg(arg_base + 1);  // r
  w.PushU(U256(dispute_mem::kEcInput + 0x40));
  w.b().Op(Opcode::MSTORE);
  w.PushArg(arg_base + 2);  // s
  w.PushU(U256(dispute_mem::kEcInput + 0x60));
  w.b().Op(Opcode::MSTORE);
  // CALL(gas=0xffff, to=1 (ecrecover), value=0, in=[0x00,0x80), out 0x20).
  w.PushU(U256(0x20));
  w.PushU(U256(dispute_mem::kEcOutput));
  w.PushU(U256(0x80));
  w.PushU(U256(dispute_mem::kEcInput));
  w.PushU(U256(0));
  w.PushU(U256(1));
  w.PushU(U256(0xffff));
  w.b().Op(Opcode::CALL);
  w.b().Op(Opcode::POP);
  w.PushU(U256(dispute_mem::kEcOutput));
  w.b().Op(Opcode::MLOAD);
  w.PushAddress(expected);
  w.b().Op(Opcode::EQ);
  w.Require();
}

void EmitCreateFromStagedBytes(ContractWriter& w) {
  // Stack in: [len]; create(0, staged bytecode, len).
  w.PushU(U256(dispute_mem::kBytecodeAt));
  w.PushU(U256(0));
  w.b().Op(Opcode::CREATE);            // [addr]
  w.b().Op(Opcode::DUP1);
  w.Require();
}

void EmitRequireCallerIsStored(ContractWriter& w, const U256& slot) {
  w.SLoad(slot);
  w.b().Op(Opcode::DUP1);
  w.Require();
  w.PushCaller();
  w.b().Op(Opcode::EQ);
  w.Require();
}

void EmitEnforceCallback(ContractWriter& w,
                         std::string_view enforce_signature) {
  // Stack in: [word]; calldata = selector ++ word at memory 0x40.
  w.PushU(U256(abi::SelectorWord(enforce_signature)) << 224);
  w.PushU(U256(0x40));
  w.b().Op(Opcode::MSTORE);
  w.PushU(U256(0x44));
  w.b().Op(Opcode::MSTORE);            // mem[0x44] = word; []
  w.PushU(U256(0));                    // out size
  w.PushU(U256(0));                    // out offset
  w.PushU(U256(0x24));                 // in size (4 + 32)
  w.PushU(U256(0x40));                 // in offset
  w.PushU(U256(0));                    // value
  w.PushArg(0);                        // to
  w.b().Op(Opcode::GAS);               // forward all gas
  w.b().Op(Opcode::CALL);
  w.Require();
}

}  // namespace onoff::contracts
