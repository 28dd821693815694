#include "evm/interp.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "evm/precompiles.h"

namespace onoff::evm {

const std::array<obs::Counter*, 256>* OpcodeCounters() {
  static const std::array<obs::Counter*, 256>* const table =
      []() -> const std::array<obs::Counter*, 256>* {
    obs::Registry* registry = obs::Registry::Global();
    if (registry == nullptr) return nullptr;
    auto* t = new std::array<obs::Counter*, 256>();
    for (int op = 0; op < 256; ++op) {
      const OpcodeInfo& info = GetOpcodeInfo(static_cast<uint8_t>(op));
      (*t)[op] = registry->GetCounter("evm.opcode." + std::string(info.name));
    }
    return t;
  }();
  return table;
}

Interpreter::Interpreter(Evm* evm, Address code_addr, Address self,
                         Address caller, U256 value, Bytes data, uint64_t gas,
                         bool is_static, int depth, const Bytes* override_code)
    : evm_(evm),
      world_(evm->world_),
      self_(self),
      caller_(caller),
      value_(value),
      data_(std::move(data)),
      gas_(gas),
      is_static_(is_static),
      depth_(depth),
      hook_(evm->trace_hook_),
      code_addr_(code_addr),
      has_override_(override_code != nullptr) {
  // Own copy: a reentrant call could SELFDESTRUCT this very account and
  // free the state's copy while this frame is still executing.
  code_ = override_code != nullptr ? *override_code
                                   : world_->GetCode(code_addr);
}

bool Interpreter::Expand(const U256& offset, const U256& size,
                         uint64_t* off_out, uint64_t* size_out) {
  if (size.IsZero()) {
    *off_out = 0;
    *size_out = 0;
    return true;
  }
  // Anything beyond 4 GiB would cost more gas than any block has.
  if (!offset.FitsUint64() || !size.FitsUint64() ||
      offset.low64() > (uint64_t{1} << 32) ||
      size.low64() > (uint64_t{1} << 32)) {
    return false;
  }
  uint64_t end = offset.low64() + size.low64();
  uint64_t new_words = gas::ToWords(end);
  uint64_t cur_words = memory_.size() / 32;
  if (new_words > cur_words) {
    uint64_t cost = gas::MemoryCost(new_words) - gas::MemoryCost(cur_words);
    if (!UseGas(cost)) return false;
    memory_.resize(new_words * 32, 0);
  }
  *off_out = offset.low64();
  *size_out = size.low64();
  return true;
}

void Interpreter::StoreWord(uint64_t offset, const U256& v) {
  auto be = v.ToBigEndian();
  std::copy(be.begin(), be.end(), memory_.begin() + offset);
}

void Interpreter::CopyToMemory(BytesView src, const U256& src_off,
                               uint64_t mem_off, uint64_t size) {
  for (uint64_t i = 0; i < size; ++i) {
    U256 pos = src_off + U256(i);
    uint8_t b = 0;
    if (pos.FitsUint64() && pos.low64() < src.size()) b = src[pos.low64()];
    memory_[mem_off + i] = b;
  }
}

ExecResult Interpreter::Run() {
  // A step hook observes every instruction, so traced frames always run on
  // the reference loop.
  if (hook_ != nullptr || evm_->dispatch_mode() == DispatchMode::kSwitch) {
    own_jumpdests_ = AnalyzeJumpdests(code_);
    jumpdests_ = &own_jumpdests_;
    return RunSwitch();
  }
  if (has_override_) {
    // Init code runs once; hashing it to probe the cache would cost about
    // as much as the decode itself.
    analysis_ = std::make_shared<const CodeAnalysis>(Analyze(code_));
  } else {
    analysis_ = CodeAnalysisCache::Global().Get(
        world_->GetCodeHash(code_addr_), code_);
  }
  jumpdests_ = &analysis_->jumpdests;
  if (analysis_->switch_only) return RunSwitch();
  return RunThreaded();
}

ExecResult Interpreter::FallbackAt(size_t pc, const CodeBlock* blk,
                                   uint32_t prefix_ops) {
  const std::array<obs::Counter*, 256>* op_counters = OpcodeCounters();
  if (op_counters != nullptr && blk != nullptr) {
    const CodeAnalysis& an = *analysis_;
    for (uint32_t i = 0; i < prefix_ops; ++i) {
      (*op_counters)[an.ops[blk->ops_begin + i]]->Inc();
    }
  }
  pc_ = pc;
  return RunSwitch();
}

// ---------------------------------------------------------------------------
// Reference dispatch: the per-instruction switch loop. Semantic ground
// truth for the threaded loop and the landing pad for its fallbacks (which
// set pc_ and re-enter here mid-frame).
// ---------------------------------------------------------------------------

ExecResult Interpreter::RunSwitch() {
  const std::array<obs::Counter*, 256>* op_counters = OpcodeCounters();
  while (pc_ < code_.size()) {
    uint8_t op_byte = code_[pc_];
    if (op_counters != nullptr) (*op_counters)[op_byte]->Inc();
    const OpcodeInfo& info = GetOpcodeInfo(op_byte);
    if (hook_ != nullptr) {
      // Observed before execution (and before validity checks, so invalid
      // instructions still appear in the structLog, like geth).
      StepContext step;
      step.pc = pc_;
      step.opcode = op_byte;
      step.op_name = info.name.data();
      step.gas = gas_;
      step.depth = depth_;
      step.stack = stack_.data();
      step.stack_size = stack_.size();
      step.memory_size = memory_.size();
      hook_->OnStep(step);
    }
    if (!info.defined || op_byte == static_cast<uint8_t>(Opcode::INVALID)) {
      return Halt(Outcome::kInvalidInstruction);
    }
    if (stack_.size() < info.stack_in) return Halt(Outcome::kStackUnderflow);
    if (stack_.size() - info.stack_in + info.stack_out > gas::kMaxStack) {
      return Halt(Outcome::kStackOverflow);
    }
    Opcode op = static_cast<Opcode>(op_byte);
    size_t next_pc = pc_ + 1 + info.immediate_size;

    // PUSH / DUP / SWAP / LOG families first.
    if (IsPush(op_byte)) {
      if (!UseGas(gas::kVeryLow)) return Halt(Outcome::kOutOfGas);
      int n = PushSize(op_byte);
      U256 v;
      for (int i = 0; i < n; ++i) {
        uint8_t b = pc_ + 1 + i < code_.size() ? code_[pc_ + 1 + i] : 0;
        v = (v << 8) | U256(b);
      }
      stack_.PushUnsafe(v);
      pc_ = next_pc;
      continue;
    }
    if (op_byte >= 0x80 && op_byte <= 0x8f) {  // DUPn
      if (!UseGas(gas::kVeryLow)) return Halt(Outcome::kOutOfGas);
      int n = op_byte - 0x7f;
      stack_.PushUnsafe(stack_.Peek(n - 1));
      pc_ = next_pc;
      continue;
    }
    if (op_byte >= 0x90 && op_byte <= 0x9f) {  // SWAPn
      if (!UseGas(gas::kVeryLow)) return Halt(Outcome::kOutOfGas);
      int n = op_byte - 0x8f;
      std::swap(stack_.Top(), stack_.Peek(n));
      pc_ = next_pc;
      continue;
    }
    if (op_byte >= 0xa0 && op_byte <= 0xa4) {  // LOGn
      if (is_static_) return Halt(Outcome::kStaticViolation);
      int topics = op_byte - 0xa0;
      U256 off = stack_.PopUnsafe();
      U256 size = stack_.PopUnsafe();
      std::vector<U256> topic_vals(topics);
      for (int i = 0; i < topics; ++i) topic_vals[i] = stack_.PopUnsafe();
      uint64_t o = 0, s = 0;
      if (!Expand(off, size, &o, &s)) return Halt(Outcome::kOutOfGas);
      uint64_t cost = gas::kLog + gas::kLogTopic * topics + gas::kLogData * s;
      if (!UseGas(cost)) return Halt(Outcome::kOutOfGas);
      LogEntry entry;
      entry.address = self_;
      entry.topics = std::move(topic_vals);
      entry.data.assign(memory_.begin() + o, memory_.begin() + o + s);
      logs_.push_back(std::move(entry));
      pc_ = next_pc;
      continue;
    }

    switch (op) {
      case Opcode::STOP:
        return Halt(Outcome::kSuccess);

      // ---- Arithmetic / comparison / bitwise ----
      // Binary ops rewrite the new top slot in place; `a` is the
      // first-popped operand, exactly as EvalBinop binds it.
      case Opcode::ADD:
      case Opcode::SUB:
      case Opcode::LT:
      case Opcode::GT:
      case Opcode::SLT:
      case Opcode::SGT:
      case Opcode::EQ:
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
      case Opcode::BYTE:
      case Opcode::SHL:
      case Opcode::SHR:
      case Opcode::SAR: {
        if (!UseGas(gas::kVeryLow)) return Halt(Outcome::kOutOfGas);
        U256 a = stack_.PopUnsafe();
        U256& b = stack_.Top();
        b = EvalBinop(BinopHandler(op_byte), a, b);
        break;
      }
      case Opcode::MUL:
      case Opcode::DIV:
      case Opcode::SDIV:
      case Opcode::MOD:
      case Opcode::SMOD:
      case Opcode::SIGNEXTEND: {
        if (!UseGas(gas::kLow)) return Halt(Outcome::kOutOfGas);
        U256 a = stack_.PopUnsafe();
        U256& b = stack_.Top();
        b = EvalBinop(BinopHandler(op_byte), a, b);
        break;
      }
      case Opcode::ADDMOD: {
        if (!UseGas(gas::kMid)) return Halt(Outcome::kOutOfGas);
        U256 a = stack_.PopUnsafe();
        U256 b = stack_.PopUnsafe();
        U256& m = stack_.Top();
        m = U256::AddMod(a, b, m);
        break;
      }
      case Opcode::MULMOD: {
        if (!UseGas(gas::kMid)) return Halt(Outcome::kOutOfGas);
        U256 a = stack_.PopUnsafe();
        U256 b = stack_.PopUnsafe();
        U256& m = stack_.Top();
        m = U256::MulMod(a, b, m);
        break;
      }
      case Opcode::EXP: {
        U256 base = stack_.PopUnsafe();
        U256 exp = stack_.PopUnsafe();
        uint64_t exp_bytes = (exp.BitLength() + 7) / 8;
        if (!UseGas(gas::kExp + gas::kExpByte * exp_bytes)) {
          return Halt(Outcome::kOutOfGas);
        }
        stack_.PushUnsafe(base.Exp(exp));
        break;
      }
      case Opcode::ISZERO: {
        if (!UseGas(gas::kVeryLow)) return Halt(Outcome::kOutOfGas);
        U256& a = stack_.Top();
        a = U256(a.IsZero() ? 1 : 0);
        break;
      }
      case Opcode::NOT: {
        if (!UseGas(gas::kVeryLow)) return Halt(Outcome::kOutOfGas);
        U256& a = stack_.Top();
        a = ~a;
        break;
      }

      case Opcode::SHA3: {
        U256 off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, size, &o, &s)) return Halt(Outcome::kOutOfGas);
        if (!UseGas(gas::kSha3 + gas::kSha3Word * gas::ToWords(s))) {
          return Halt(Outcome::kOutOfGas);
        }
        Hash32 h = Keccak256(BytesView(memory_.data() + o, s));
        stack_.PushUnsafe(
            U256::FromBigEndianTruncating(BytesView(h.data(), h.size())));
        break;
      }

      // ---- Environment ----
      case Opcode::ADDRESS:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(self_.ToWord());
        break;
      case Opcode::BALANCE: {
        if (!UseGas(gas::kBalance)) return Halt(Outcome::kOutOfGas);
        U256& a = stack_.Top();
        a = world_->GetBalance(Address::FromWord(a));
        break;
      }
      case Opcode::ORIGIN:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(evm_->tx_.origin.ToWord());
        break;
      case Opcode::CALLER:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(caller_.ToWord());
        break;
      case Opcode::CALLVALUE:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(value_);
        break;
      case Opcode::CALLDATALOAD: {
        if (!UseGas(gas::kVeryLow)) return Halt(Outcome::kOutOfGas);
        U256 off = stack_.PopUnsafe();
        U256 v;
        for (int i = 0; i < 32; ++i) {
          U256 pos = off + U256(static_cast<uint64_t>(i));
          uint8_t b = 0;
          if (pos.FitsUint64() && pos.low64() < data_.size()) {
            b = data_[pos.low64()];
          }
          v = (v << 8) | U256(b);
        }
        stack_.PushUnsafe(v);
        break;
      }
      case Opcode::CALLDATASIZE:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(U256(data_.size()));
        break;
      case Opcode::CALLDATACOPY:
      case Opcode::CODECOPY:
      case Opcode::RETURNDATACOPY: {
        U256 mem_off = stack_.PopUnsafe();
        U256 src_off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(mem_off, size, &o, &s)) return Halt(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow + gas::kCopy * gas::ToWords(s))) {
          return Halt(Outcome::kOutOfGas);
        }
        const Bytes& src = op == Opcode::CALLDATACOPY   ? data_
                           : op == Opcode::CODECOPY     ? code_
                                                        : return_data_;
        if (op == Opcode::RETURNDATACOPY) {
          // Reading past RETURNDATA is an exceptional halt (EIP-211).
          U256 end = src_off + size;
          if (!end.FitsUint64() || end.low64() > src.size()) {
            return Halt(Outcome::kOutOfGas);
          }
        }
        CopyToMemory(src, src_off, o, s);
        break;
      }
      case Opcode::CODESIZE:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(U256(code_.size()));
        break;
      case Opcode::GASPRICE:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(evm_->tx_.gas_price);
        break;
      case Opcode::EXTCODESIZE: {
        if (!UseGas(gas::kExtCode)) return Halt(Outcome::kOutOfGas);
        U256& a = stack_.Top();
        a = U256(world_->GetCode(Address::FromWord(a)).size());
        break;
      }
      case Opcode::EXTCODECOPY: {
        U256 addr_word = stack_.PopUnsafe();
        U256 mem_off = stack_.PopUnsafe();
        U256 src_off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(mem_off, size, &o, &s)) return Halt(Outcome::kOutOfGas);
        if (!UseGas(gas::kExtCode + gas::kCopy * gas::ToWords(s))) {
          return Halt(Outcome::kOutOfGas);
        }
        CopyToMemory(world_->GetCode(Address::FromWord(addr_word)), src_off, o,
                     s);
        break;
      }
      case Opcode::RETURNDATASIZE:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(U256(return_data_.size()));
        break;

      // ---- Block ----
      case Opcode::BLOCKHASH: {
        if (!UseGas(gas::kBlockhash)) return Halt(Outcome::kOutOfGas);
        U256 num = stack_.PopUnsafe();
        Hash32 h{};
        const BlockContext& blk = evm_->block_;
        if (blk.block_hash && num.FitsUint64() && num.low64() < blk.number &&
            num.low64() + 256 >= blk.number) {
          h = blk.block_hash(num.low64());
        }
        stack_.PushUnsafe(
            U256::FromBigEndianTruncating(BytesView(h.data(), h.size())));
        break;
      }
      case Opcode::COINBASE:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(evm_->block_.coinbase.ToWord());
        break;
      case Opcode::TIMESTAMP:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(U256(evm_->block_.timestamp));
        break;
      case Opcode::NUMBER:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(U256(evm_->block_.number));
        break;
      case Opcode::DIFFICULTY:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(evm_->block_.difficulty);
        break;
      case Opcode::GASLIMIT:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(U256(evm_->block_.gas_limit));
        break;

      // ---- Stack / memory / storage / control ----
      case Opcode::POP: {
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.Drop(1);
        break;
      }
      case Opcode::MLOAD: {
        U256 off = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, U256(32), &o, &s)) return Halt(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(LoadWord(o));
        break;
      }
      case Opcode::MSTORE: {
        U256 off = stack_.PopUnsafe();
        U256 v = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, U256(32), &o, &s)) return Halt(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow)) return Halt(Outcome::kOutOfGas);
        StoreWord(o, v);
        break;
      }
      case Opcode::MSTORE8: {
        U256 off = stack_.PopUnsafe();
        U256 v = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, U256(1), &o, &s)) return Halt(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow)) return Halt(Outcome::kOutOfGas);
        memory_[o] = static_cast<uint8_t>(v.low64() & 0xff);
        break;
      }
      case Opcode::SLOAD: {
        if (!UseGas(gas::kSload)) return Halt(Outcome::kOutOfGas);
        U256& key = stack_.Top();
        key = world_->GetStorage(self_, key);
        break;
      }
      case Opcode::SSTORE: {
        if (is_static_) return Halt(Outcome::kStaticViolation);
        U256 key = stack_.PopUnsafe();
        U256 value = stack_.PopUnsafe();
        U256 current = world_->GetStorage(self_, key);
        uint64_t cost = gas::kSstoreReset;
        if (current.IsZero() && !value.IsZero()) cost = gas::kSstoreSet;
        if (!current.IsZero() && value.IsZero()) refund_ += gas::kSstoreRefund;
        if (!UseGas(cost)) return Halt(Outcome::kOutOfGas);
        world_->SetStorage(self_, key, value);
        break;
      }
      case Opcode::JUMP: {
        if (!UseGas(gas::kMid)) return Halt(Outcome::kOutOfGas);
        U256 dest = stack_.PopUnsafe();
        if (!dest.FitsUint64() || dest.low64() >= code_.size() ||
            !(*jumpdests_)[dest.low64()]) {
          return Halt(Outcome::kBadJumpDestination);
        }
        pc_ = dest.low64();
        continue;
      }
      case Opcode::JUMPI: {
        if (!UseGas(gas::kHigh)) return Halt(Outcome::kOutOfGas);
        U256 dest = stack_.PopUnsafe();
        U256 cond = stack_.PopUnsafe();
        if (!cond.IsZero()) {
          if (!dest.FitsUint64() || dest.low64() >= code_.size() ||
              !(*jumpdests_)[dest.low64()]) {
            return Halt(Outcome::kBadJumpDestination);
          }
          pc_ = dest.low64();
          continue;
        }
        break;
      }
      case Opcode::PC:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(U256(pc_));
        break;
      case Opcode::MSIZE:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(U256(memory_.size()));
        break;
      case Opcode::GAS:
        if (!UseGas(gas::kBase)) return Halt(Outcome::kOutOfGas);
        stack_.PushUnsafe(U256(gas_));
        break;
      case Opcode::JUMPDEST:
        if (!UseGas(gas::kJumpdest)) return Halt(Outcome::kOutOfGas);
        break;

      // ---- System ----
      case Opcode::CREATE:
      case Opcode::CREATE2:
        if (!DoCreate(op)) return Halt(pending_halt_);
        break;
      case Opcode::CALL:
      case Opcode::CALLCODE:
      case Opcode::DELEGATECALL:
      case Opcode::STATICCALL:
        if (!DoCall(op)) return Halt(pending_halt_);
        break;
      case Opcode::RETURN: {
        U256 off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, size, &o, &s)) return Halt(Outcome::kOutOfGas);
        output_.assign(memory_.begin() + o, memory_.begin() + o + s);
        return Halt(Outcome::kSuccess);
      }
      case Opcode::REVERT: {
        U256 off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, size, &o, &s)) return Halt(Outcome::kOutOfGas);
        output_.assign(memory_.begin() + o, memory_.begin() + o + s);
        return Halt(Outcome::kRevert);
      }
      case Opcode::SELFDESTRUCT: {
        if (is_static_) return Halt(Outcome::kStaticViolation);
        U256 beneficiary_word = stack_.PopUnsafe();
        Address beneficiary = Address::FromWord(beneficiary_word);
        uint64_t cost = gas::kSelfdestruct;
        U256 balance = world_->GetBalance(self_);
        if (!world_->Exists(beneficiary) && !balance.IsZero()) {
          cost += gas::kCallNewAccount;
        }
        if (!UseGas(cost)) return Halt(Outcome::kOutOfGas);
        refund_ += gas::kSelfdestructRefund;
        world_->AddBalance(beneficiary, balance);
        world_->DeleteAccount(self_);
        return Halt(Outcome::kSuccess);
      }
      default:
        return Halt(Outcome::kInvalidInstruction);
    }
    pc_ = next_pc;
  }
  return Halt(Outcome::kSuccess);
}

// ---------------------------------------------------------------------------
// Threaded dispatch over the analysis cell stream.
// ---------------------------------------------------------------------------

// Computed-goto direct threading (the GNU labels-as-values extension, which
// every compiler that builds this library supports): each handler ends by
// jumping straight to the next cell's label.
#define ONOFF_OPCASE(name) L_##name:
#define ONOFF_NEXT()               \
  do {                             \
    cell = ip++;                   \
    goto* kLabels[cell->op];       \
  } while (0)

// Halts the frame from a threaded handler: credits the opcodes of the
// current block whose execution has begun (the cell's ops_end prefix —
// the reference loop counts an instruction before executing it) and
// returns through Halt.
#define ONOFF_HALT(outcome_expr)                                        \
  do {                                                                  \
    if (op_counters != nullptr && pending != nullptr) {                 \
      for (uint32_t fi = 0; fi < cell->ops_end; ++fi) {                 \
        (*op_counters)[an.ops[pending->ops_begin + fi]]->Inc();         \
      }                                                                 \
    }                                                                   \
    return Halt(outcome_expr);                                          \
  } while (0)

#define ONOFF_BINOP_HANDLER(name)                     \
  ONOFF_OPCASE(name) {                                \
    U256 a = stack_.PopUnsafe();                      \
    U256& b = stack_.Top();                           \
    b = EvalBinop(Handler::name, a, b);               \
    ONOFF_NEXT();                                     \
  }

ExecResult Interpreter::RunThreaded() {
  const std::array<obs::Counter*, 256>* op_counters = OpcodeCounters();
  const CodeAnalysis& an = *analysis_;
  const CodeCell* const cells = an.cells.data();
  const CodeCell* ip = cells;   // next cell to execute
  const CodeCell* cell = cells;  // currently executing cell
  const CodeBlock* pending = nullptr;  // block with unflushed counters

  // Function-local so label addresses are in scope; `static const` so GCC
  // and Clang constant-initialize it (no racy first-call initialization
  // when frames run on multiple threads).
  static const void* const kLabels[] = {
#define ONOFF_EVM_H_LABEL(name, ...) &&L_##name,
      ONOFF_EVM_HANDLER_LIST(ONOFF_EVM_H_LABEL)
#undef ONOFF_EVM_H_LABEL
  };
  ONOFF_NEXT();

      // ---- Block bookkeeping ----
      ONOFF_OPCASE(BEGIN_BLOCK) {
        // The previous block ran to completion (control only leaves a
        // block through its end), so flush its aggregated counters.
        if (op_counters != nullptr && pending != nullptr) {
          for (uint32_t i = pending->agg_begin; i < pending->agg_end; ++i) {
            (*op_counters)[an.agg[i].first]->Inc(an.agg[i].second);
          }
        }
        const CodeBlock& b = an.blocks[cell->imm];
        pending = &b;
        size_t sz = stack_.size();
        // Hoisted per-block checks. On failure nothing of this block has
        // executed yet and the frame is provably about to halt — replay on
        // the reference loop for the exact outcome, gas and counters.
        if (sz < b.stack_req || sz + b.stack_max > gas::kMaxStack ||
            gas_ < b.base_gas) {
          return FallbackAt(cell->pc, nullptr, 0);
        }
        gas_ -= b.base_gas;
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CHARGE) {
        // Static gas of the segment after a checkpoint. On failure the ops
        // up to and including the checkpoint have executed; replay covers
        // the rest of the segment.
        if (gas_ < cell->imm) {
          return FallbackAt(cell->pc, pending, cell->ops_end);
        }
        gas_ -= cell->imm;
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(IMPLICIT_STOP) { ONOFF_HALT(Outcome::kSuccess); }

      ONOFF_OPCASE(STOP) { ONOFF_HALT(Outcome::kSuccess); }

      // ---- Arithmetic / comparison / bitwise (static gas hoisted) ----
      ONOFF_BINOP_HANDLER(ADD)
      ONOFF_BINOP_HANDLER(MUL)
      ONOFF_BINOP_HANDLER(SUB)
      ONOFF_BINOP_HANDLER(DIV)
      ONOFF_BINOP_HANDLER(SDIV)
      ONOFF_BINOP_HANDLER(MOD)
      ONOFF_BINOP_HANDLER(SMOD)
      ONOFF_BINOP_HANDLER(SIGNEXTEND)
      ONOFF_BINOP_HANDLER(LT)
      ONOFF_BINOP_HANDLER(GT)
      ONOFF_BINOP_HANDLER(SLT)
      ONOFF_BINOP_HANDLER(SGT)
      ONOFF_BINOP_HANDLER(EQ)
      ONOFF_BINOP_HANDLER(AND)
      ONOFF_BINOP_HANDLER(OR)
      ONOFF_BINOP_HANDLER(XOR)
      ONOFF_BINOP_HANDLER(BYTE)
      ONOFF_BINOP_HANDLER(SHL)
      ONOFF_BINOP_HANDLER(SHR)
      ONOFF_BINOP_HANDLER(SAR)

      ONOFF_OPCASE(ADDMOD) {
        U256 a = stack_.PopUnsafe();
        U256 b = stack_.PopUnsafe();
        U256& m = stack_.Top();
        m = U256::AddMod(a, b, m);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(MULMOD) {
        U256 a = stack_.PopUnsafe();
        U256 b = stack_.PopUnsafe();
        U256& m = stack_.Top();
        m = U256::MulMod(a, b, m);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(EXP) {  // checkpoint: dynamic gas
        U256 base = stack_.PopUnsafe();
        U256 exp = stack_.PopUnsafe();
        uint64_t exp_bytes = (exp.BitLength() + 7) / 8;
        if (!UseGas(gas::kExp + gas::kExpByte * exp_bytes)) {
          ONOFF_HALT(Outcome::kOutOfGas);
        }
        stack_.PushUnsafe(base.Exp(exp));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(ISZERO) {
        U256& a = stack_.Top();
        a = U256(a.IsZero() ? 1 : 0);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(NOT) {
        U256& a = stack_.Top();
        a = ~a;
        ONOFF_NEXT();
      }

      ONOFF_OPCASE(SHA3) {  // checkpoint: memory expansion + dynamic gas
        U256 off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, size, &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        if (!UseGas(gas::kSha3 + gas::kSha3Word * gas::ToWords(s))) {
          ONOFF_HALT(Outcome::kOutOfGas);
        }
        Hash32 h = Keccak256(BytesView(memory_.data() + o, s));
        stack_.PushUnsafe(
            U256::FromBigEndianTruncating(BytesView(h.data(), h.size())));
        ONOFF_NEXT();
      }

      // ---- Environment (static gas hoisted) ----
      ONOFF_OPCASE(ADDRESS) {
        stack_.PushUnsafe(self_.ToWord());
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(BALANCE) {
        U256& a = stack_.Top();
        a = world_->GetBalance(Address::FromWord(a));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(ORIGIN) {
        stack_.PushUnsafe(evm_->tx_.origin.ToWord());
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CALLER) {
        stack_.PushUnsafe(caller_.ToWord());
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CALLVALUE) {
        stack_.PushUnsafe(value_);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CALLDATALOAD) {
        U256 off = stack_.PopUnsafe();
        U256 v;
        for (int i = 0; i < 32; ++i) {
          U256 pos = off + U256(static_cast<uint64_t>(i));
          uint8_t b = 0;
          if (pos.FitsUint64() && pos.low64() < data_.size()) {
            b = data_[pos.low64()];
          }
          v = (v << 8) | U256(b);
        }
        stack_.PushUnsafe(v);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CALLDATASIZE) {
        stack_.PushUnsafe(U256(data_.size()));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CALLDATACOPY) {  // checkpoint
        U256 mem_off = stack_.PopUnsafe();
        U256 src_off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(mem_off, size, &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow + gas::kCopy * gas::ToWords(s))) {
          ONOFF_HALT(Outcome::kOutOfGas);
        }
        CopyToMemory(data_, src_off, o, s);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CODESIZE) {
        stack_.PushUnsafe(U256(code_.size()));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CODECOPY) {  // checkpoint
        U256 mem_off = stack_.PopUnsafe();
        U256 src_off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(mem_off, size, &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow + gas::kCopy * gas::ToWords(s))) {
          ONOFF_HALT(Outcome::kOutOfGas);
        }
        CopyToMemory(code_, src_off, o, s);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(GASPRICE) {
        stack_.PushUnsafe(evm_->tx_.gas_price);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(EXTCODESIZE) {
        U256& a = stack_.Top();
        a = U256(world_->GetCode(Address::FromWord(a)).size());
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(EXTCODECOPY) {  // checkpoint
        U256 addr_word = stack_.PopUnsafe();
        U256 mem_off = stack_.PopUnsafe();
        U256 src_off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(mem_off, size, &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        if (!UseGas(gas::kExtCode + gas::kCopy * gas::ToWords(s))) {
          ONOFF_HALT(Outcome::kOutOfGas);
        }
        CopyToMemory(world_->GetCode(Address::FromWord(addr_word)), src_off, o,
                     s);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(RETURNDATASIZE) {
        stack_.PushUnsafe(U256(return_data_.size()));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(RETURNDATACOPY) {  // checkpoint
        U256 mem_off = stack_.PopUnsafe();
        U256 src_off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(mem_off, size, &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow + gas::kCopy * gas::ToWords(s))) {
          ONOFF_HALT(Outcome::kOutOfGas);
        }
        {
          // Reading past RETURNDATA is an exceptional halt (EIP-211).
          U256 end = src_off + size;
          if (!end.FitsUint64() || end.low64() > return_data_.size()) {
            ONOFF_HALT(Outcome::kOutOfGas);
          }
        }
        CopyToMemory(return_data_, src_off, o, s);
        ONOFF_NEXT();
      }

      // ---- Block environment ----
      ONOFF_OPCASE(BLOCKHASH) {
        U256 num = stack_.PopUnsafe();
        Hash32 h{};
        const BlockContext& blk = evm_->block_;
        if (blk.block_hash && num.FitsUint64() && num.low64() < blk.number &&
            num.low64() + 256 >= blk.number) {
          h = blk.block_hash(num.low64());
        }
        stack_.PushUnsafe(
            U256::FromBigEndianTruncating(BytesView(h.data(), h.size())));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(COINBASE) {
        stack_.PushUnsafe(evm_->block_.coinbase.ToWord());
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(TIMESTAMP) {
        stack_.PushUnsafe(U256(evm_->block_.timestamp));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(NUMBER) {
        stack_.PushUnsafe(U256(evm_->block_.number));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(DIFFICULTY) {
        stack_.PushUnsafe(evm_->block_.difficulty);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(GASLIMIT) {
        stack_.PushUnsafe(U256(evm_->block_.gas_limit));
        ONOFF_NEXT();
      }

      // ---- Stack / memory / storage / control ----
      ONOFF_OPCASE(POP) {
        stack_.Drop(1);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(MLOAD) {  // checkpoint: memory expansion
        U256 off = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, U256(32), &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow)) ONOFF_HALT(Outcome::kOutOfGas);
        stack_.PushUnsafe(LoadWord(o));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(MSTORE) {  // checkpoint
        U256 off = stack_.PopUnsafe();
        U256 v = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, U256(32), &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow)) ONOFF_HALT(Outcome::kOutOfGas);
        StoreWord(o, v);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(MSTORE8) {  // checkpoint
        U256 off = stack_.PopUnsafe();
        U256 v = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, U256(1), &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow)) ONOFF_HALT(Outcome::kOutOfGas);
        memory_[o] = static_cast<uint8_t>(v.low64() & 0xff);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(SLOAD) {
        U256& key = stack_.Top();
        key = world_->GetStorage(self_, key);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(SSTORE) {  // checkpoint: static check + dynamic gas
        if (is_static_) ONOFF_HALT(Outcome::kStaticViolation);
        U256 key = stack_.PopUnsafe();
        U256 value = stack_.PopUnsafe();
        U256 current = world_->GetStorage(self_, key);
        uint64_t cost = gas::kSstoreReset;
        if (current.IsZero() && !value.IsZero()) cost = gas::kSstoreSet;
        if (!current.IsZero() && value.IsZero()) refund_ += gas::kSstoreRefund;
        if (!UseGas(cost)) ONOFF_HALT(Outcome::kOutOfGas);
        world_->SetStorage(self_, key, value);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(JUMP) {
        U256 dest = stack_.PopUnsafe();
        if (!dest.FitsUint64() || dest.low64() >= code_.size() ||
            an.jump_cell[dest.low64()] < 0) {
          ONOFF_HALT(Outcome::kBadJumpDestination);
        }
        ip = cells + an.jump_cell[dest.low64()];
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(JUMPI) {
        U256 dest = stack_.PopUnsafe();
        U256 cond = stack_.PopUnsafe();
        if (!cond.IsZero()) {
          if (!dest.FitsUint64() || dest.low64() >= code_.size() ||
              an.jump_cell[dest.low64()] < 0) {
            ONOFF_HALT(Outcome::kBadJumpDestination);
          }
          ip = cells + an.jump_cell[dest.low64()];
        }
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(PC) {
        stack_.PushUnsafe(U256(static_cast<uint64_t>(cell->pc)));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(MSIZE) {
        stack_.PushUnsafe(U256(memory_.size()));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(GAS) {  // checkpoint: observes exact remaining gas
        if (!UseGas(gas::kBase)) ONOFF_HALT(Outcome::kOutOfGas);
        stack_.PushUnsafe(U256(gas_));
        ONOFF_NEXT();
      }

      // ---- Immediate families ----
      ONOFF_OPCASE(PUSH) {
        stack_.PushUnsafe(an.pool[cell->imm]);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(DUP) {
        stack_.PushUnsafe(stack_.Peek(cell->arg - 1));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(SWAP) {
        std::swap(stack_.Top(), stack_.Peek(cell->arg));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(LOG) {  // checkpoint: static check + dynamic gas
        if (is_static_) ONOFF_HALT(Outcome::kStaticViolation);
        int topics = cell->arg;
        U256 off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        std::vector<U256> topic_vals(topics);
        for (int i = 0; i < topics; ++i) topic_vals[i] = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, size, &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        uint64_t cost =
            gas::kLog + gas::kLogTopic * topics + gas::kLogData * s;
        if (!UseGas(cost)) ONOFF_HALT(Outcome::kOutOfGas);
        LogEntry entry;
        entry.address = self_;
        entry.topics = std::move(topic_vals);
        entry.data.assign(memory_.begin() + o, memory_.begin() + o + s);
        logs_.push_back(std::move(entry));
        ONOFF_NEXT();
      }

      // ---- System (checkpoints: DoCall/DoCreate replicate the switch) ----
      ONOFF_OPCASE(CREATE) {
        if (!DoCreate(Opcode::CREATE)) ONOFF_HALT(pending_halt_);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CREATE2) {
        if (!DoCreate(Opcode::CREATE2)) ONOFF_HALT(pending_halt_);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CALL) {
        if (!DoCall(Opcode::CALL)) ONOFF_HALT(pending_halt_);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(CALLCODE) {
        if (!DoCall(Opcode::CALLCODE)) ONOFF_HALT(pending_halt_);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(DELEGATECALL) {
        if (!DoCall(Opcode::DELEGATECALL)) ONOFF_HALT(pending_halt_);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(STATICCALL) {
        if (!DoCall(Opcode::STATICCALL)) ONOFF_HALT(pending_halt_);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(RETURN) {
        U256 off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, size, &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        output_.assign(memory_.begin() + o, memory_.begin() + o + s);
        ONOFF_HALT(Outcome::kSuccess);
      }
      ONOFF_OPCASE(REVERT) {
        U256 off = stack_.PopUnsafe();
        U256 size = stack_.PopUnsafe();
        uint64_t o = 0, s = 0;
        if (!Expand(off, size, &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        output_.assign(memory_.begin() + o, memory_.begin() + o + s);
        ONOFF_HALT(Outcome::kRevert);
      }
      ONOFF_OPCASE(INVALID) { ONOFF_HALT(Outcome::kInvalidInstruction); }
      ONOFF_OPCASE(SELFDESTRUCT) {
        if (is_static_) ONOFF_HALT(Outcome::kStaticViolation);
        U256 beneficiary_word = stack_.PopUnsafe();
        Address beneficiary = Address::FromWord(beneficiary_word);
        uint64_t cost = gas::kSelfdestruct;
        U256 balance = world_->GetBalance(self_);
        if (!world_->Exists(beneficiary) && !balance.IsZero()) {
          cost += gas::kCallNewAccount;
        }
        if (!UseGas(cost)) ONOFF_HALT(Outcome::kOutOfGas);
        refund_ += gas::kSelfdestructRefund;
        world_->AddBalance(beneficiary, balance);
        world_->DeleteAccount(self_);
        ONOFF_HALT(Outcome::kSuccess);
      }

      // ---- Superinstructions ----
      ONOFF_OPCASE(PUSH_JUMP) {
        // PUSHn <valid dest> + JUMP; the target cell was resolved at
        // decode, so the pair is a direct goto.
        ip = cells + cell->imm;
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(PUSH_JUMP_BAD) {
        // PUSHn <invalid dest> + JUMP always faults.
        ONOFF_HALT(Outcome::kBadJumpDestination);
      }
      ONOFF_OPCASE(PUSH_JUMPI) {
        U256 cond = stack_.PopUnsafe();
        if (!cond.IsZero()) ip = cells + cell->imm;
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(PUSH_JUMPI_BAD) {
        // Invalid constant destination: faults only when taken.
        U256 cond = stack_.PopUnsafe();
        if (!cond.IsZero()) ONOFF_HALT(Outcome::kBadJumpDestination);
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(DUP_MLOAD) {  // checkpoint (the MLOAD half)
        U256 off = stack_.Peek(cell->arg - 1);
        uint64_t o = 0, s = 0;
        if (!Expand(off, U256(32), &o, &s)) ONOFF_HALT(Outcome::kOutOfGas);
        if (!UseGas(gas::kVeryLow)) ONOFF_HALT(Outcome::kOutOfGas);
        stack_.PushUnsafe(LoadWord(o));
        ONOFF_NEXT();
      }
      ONOFF_OPCASE(PUSH_BINOP) {
        // The pushed constant is the first-popped operand.
        U256& b = stack_.Top();
        b = EvalBinop(static_cast<Handler>(cell->arg), an.pool[cell->imm], b);
        ONOFF_NEXT();
      }
}

#undef ONOFF_BINOP_HANDLER
#undef ONOFF_HALT
#undef ONOFF_NEXT
#undef ONOFF_OPCASE

// ---------------------------------------------------------------------------
// Sub-calls (shared by both dispatch loops; stack-depth preconditions are
// established by the per-instruction or per-block checks).
// ---------------------------------------------------------------------------

bool Interpreter::DoCall(Opcode op) {
  U256 gas_req = stack_.PopUnsafe();
  U256 to_word = stack_.PopUnsafe();
  U256 value;
  if (op == Opcode::CALL || op == Opcode::CALLCODE) {
    value = stack_.PopUnsafe();
  }
  U256 in_off = stack_.PopUnsafe();
  U256 in_size = stack_.PopUnsafe();
  U256 out_off = stack_.PopUnsafe();
  U256 out_size = stack_.PopUnsafe();

  Address to = Address::FromWord(to_word);

  if (op == Opcode::CALL && is_static_ && !value.IsZero()) {
    pending_halt_ = Outcome::kStaticViolation;
    return false;
  }

  uint64_t in_o = 0, in_s = 0, out_o = 0, out_s = 0;
  if (!Expand(in_off, in_size, &in_o, &in_s) ||
      !Expand(out_off, out_size, &out_o, &out_s)) {
    pending_halt_ = Outcome::kOutOfGas;
    return false;
  }

  uint64_t base_cost = gas::kCall;
  if ((op == Opcode::CALL || op == Opcode::CALLCODE) && !value.IsZero()) {
    base_cost += gas::kCallValue;
  }
  if (op == Opcode::CALL && !value.IsZero() && !world_->Exists(to)) {
    base_cost += gas::kCallNewAccount;
  }
  if (!UseGas(base_cost)) {
    pending_halt_ = Outcome::kOutOfGas;
    return false;
  }

  // EIP-150: forward at most all-but-one-64th.
  uint64_t max_forward = gas_ - gas_ / 64;
  uint64_t forwarded = gas_req.FitsUint64()
                           ? std::min(gas_req.low64(), max_forward)
                           : max_forward;
  gas_ -= forwarded;
  uint64_t stipend = 0;
  if ((op == Opcode::CALL || op == Opcode::CALLCODE) && !value.IsZero()) {
    stipend = gas::kCallStipend;
  }

  Bytes input(memory_.begin() + in_o, memory_.begin() + in_o + in_s);

  ExecResult child;
  switch (op) {
    case Opcode::CALL: {
      CallMessage msg;
      msg.caller = self_;
      msg.to = to;
      msg.value = value;
      msg.data = std::move(input);
      msg.gas = forwarded + stipend;
      msg.is_static = is_static_;
      child = evm_->CallInternal(msg, depth_ + 1);
      break;
    }
    case Opcode::STATICCALL: {
      CallMessage msg;
      msg.caller = self_;
      msg.to = to;
      msg.value = U256();
      msg.data = std::move(input);
      msg.gas = forwarded;
      msg.is_static = true;
      child = evm_->CallInternal(msg, depth_ + 1);
      break;
    }
    case Opcode::CALLCODE:
    case Opcode::DELEGATECALL: {
      // Run the target's code in OUR storage context.
      if (depth_ + 1 > gas::kMaxCallDepth) {
        child.outcome = Outcome::kCallDepthExceeded;
        child.gas_left = forwarded + stipend;
        break;
      }
      if (op == Opcode::CALLCODE && world_->GetBalance(self_) < value) {
        child.outcome = Outcome::kInsufficientBalance;
        child.gas_left = forwarded + stipend;
        break;
      }
      FrameContext frame;
      if (hook_ != nullptr) {
        frame.kind = op == Opcode::DELEGATECALL ? "DELEGATECALL" : "CALLCODE";
        frame.depth = depth_ + 1;
        frame.self = self_;
        frame.code_address = to;
        frame.caller = op == Opcode::DELEGATECALL ? caller_ : self_;
        frame.value = op == Opcode::DELEGATECALL ? value_ : value;
        frame.gas = forwarded + stipend;
        frame.code = world_->GetCode(to);
        frame.input = input;
      }
      FrameScope frame_scope(hook_, frame, &child);
      auto snapshot = world_->TakeSnapshot();
      if (auto pre = RunPrecompile(to, input, forwarded + stipend)) {
        child.outcome = pre->success ? Outcome::kSuccess : Outcome::kOutOfGas;
        child.output = std::move(pre->output);
        child.gas_left = pre->success ? forwarded + stipend - pre->gas_cost : 0;
      } else {
        Interpreter sub(evm_, to, self_,
                        op == Opcode::DELEGATECALL ? caller_ : self_,
                        op == Opcode::DELEGATECALL ? value_ : value,
                        std::move(input), forwarded + stipend, is_static_,
                        depth_ + 1);
        child = sub.Run();
      }
      if (!child.ok()) world_->RevertToSnapshot(snapshot);
      break;
    }
    default:
      pending_halt_ = Outcome::kInvalidInstruction;
      return false;
  }

  // Copy return data into the out region; record it for RETURNDATACOPY.
  return_data_ = child.output;
  uint64_t copy = std::min<uint64_t>(out_s, child.output.size());
  if (copy > 0) {
    std::copy(child.output.begin(), child.output.begin() + copy,
              memory_.begin() + out_o);
  }
  gas_ += child.gas_left;
  if (child.ok()) {
    refund_ += child.refund;
    for (auto& log : child.logs) logs_.push_back(std::move(log));
  }
  stack_.Push(U256(child.ok() ? 1 : 0));
  return true;
}

bool Interpreter::DoCreate(Opcode op) {
  if (is_static_) {
    pending_halt_ = Outcome::kStaticViolation;
    return false;
  }
  U256 value = stack_.PopUnsafe();
  U256 off = stack_.PopUnsafe();
  U256 size = stack_.PopUnsafe();
  U256 salt;
  if (op == Opcode::CREATE2) salt = stack_.PopUnsafe();

  uint64_t o = 0, s = 0;
  if (!Expand(off, size, &o, &s)) {
    pending_halt_ = Outcome::kOutOfGas;
    return false;
  }
  uint64_t cost = gas::kCreate;
  if (op == Opcode::CREATE2) cost += gas::kSha3Word * gas::ToWords(s);
  if (!UseGas(cost)) {
    pending_halt_ = Outcome::kOutOfGas;
    return false;
  }
  Bytes init_code(memory_.begin() + o, memory_.begin() + o + s);

  // EIP-150: all but one 64th.
  uint64_t forwarded = gas_ - gas_ / 64;
  gas_ -= forwarded;

  ExecResult child = evm_->CreateInternal(
      self_, value, init_code, forwarded,
      op == Opcode::CREATE2 ? &salt : nullptr, depth_ + 1);

  return_data_ = child.ok() ? Bytes{} : child.output;
  gas_ += child.gas_left;
  if (child.ok()) {
    refund_ += child.refund;
    for (auto& log : child.logs) logs_.push_back(std::move(log));
    stack_.Push(child.created.ToWord());
  } else {
    stack_.Push(U256());
  }
  return true;
}

}  // namespace onoff::evm
