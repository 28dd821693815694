#include "evm/analysis_cache.h"

#include <cassert>
#include <string>

#include "evm/gas.h"
#include "evm/opcodes.h"
#include "obs/metrics.h"

namespace onoff::evm {

namespace {

// Stack requirements above this can never be met, so clamping to it keeps
// the u16 fields safe while preserving "always fails the entry check".
constexpr long kStackSentinel = static_cast<long>(gas::kMaxStack) + 1;

Handler HandlerFor(uint8_t op) {
  if (IsPush(op)) return Handler::PUSH;
  if (IsDup(op)) return Handler::DUP;
  if (IsSwap(op)) return Handler::SWAP;
  if (IsLog(op)) return Handler::LOG;
  switch (static_cast<Opcode>(op)) {
#define ONOFF_EVM_H_MAP(name) \
  case Opcode::name:          \
    return Handler::name;
    ONOFF_EVM_H_MAP(STOP)
    ONOFF_EVM_H_MAP(ADD)
    ONOFF_EVM_H_MAP(MUL)
    ONOFF_EVM_H_MAP(SUB)
    ONOFF_EVM_H_MAP(DIV)
    ONOFF_EVM_H_MAP(SDIV)
    ONOFF_EVM_H_MAP(MOD)
    ONOFF_EVM_H_MAP(SMOD)
    ONOFF_EVM_H_MAP(ADDMOD)
    ONOFF_EVM_H_MAP(MULMOD)
    ONOFF_EVM_H_MAP(EXP)
    ONOFF_EVM_H_MAP(SIGNEXTEND)
    ONOFF_EVM_H_MAP(LT)
    ONOFF_EVM_H_MAP(GT)
    ONOFF_EVM_H_MAP(SLT)
    ONOFF_EVM_H_MAP(SGT)
    ONOFF_EVM_H_MAP(EQ)
    ONOFF_EVM_H_MAP(ISZERO)
    ONOFF_EVM_H_MAP(AND)
    ONOFF_EVM_H_MAP(OR)
    ONOFF_EVM_H_MAP(XOR)
    ONOFF_EVM_H_MAP(NOT)
    ONOFF_EVM_H_MAP(BYTE)
    ONOFF_EVM_H_MAP(SHL)
    ONOFF_EVM_H_MAP(SHR)
    ONOFF_EVM_H_MAP(SAR)
    ONOFF_EVM_H_MAP(SHA3)
    ONOFF_EVM_H_MAP(ADDRESS)
    ONOFF_EVM_H_MAP(BALANCE)
    ONOFF_EVM_H_MAP(ORIGIN)
    ONOFF_EVM_H_MAP(CALLER)
    ONOFF_EVM_H_MAP(CALLVALUE)
    ONOFF_EVM_H_MAP(CALLDATALOAD)
    ONOFF_EVM_H_MAP(CALLDATASIZE)
    ONOFF_EVM_H_MAP(CALLDATACOPY)
    ONOFF_EVM_H_MAP(CODESIZE)
    ONOFF_EVM_H_MAP(CODECOPY)
    ONOFF_EVM_H_MAP(GASPRICE)
    ONOFF_EVM_H_MAP(EXTCODESIZE)
    ONOFF_EVM_H_MAP(EXTCODECOPY)
    ONOFF_EVM_H_MAP(RETURNDATASIZE)
    ONOFF_EVM_H_MAP(RETURNDATACOPY)
    ONOFF_EVM_H_MAP(BLOCKHASH)
    ONOFF_EVM_H_MAP(COINBASE)
    ONOFF_EVM_H_MAP(TIMESTAMP)
    ONOFF_EVM_H_MAP(NUMBER)
    ONOFF_EVM_H_MAP(DIFFICULTY)
    ONOFF_EVM_H_MAP(GASLIMIT)
    ONOFF_EVM_H_MAP(POP)
    ONOFF_EVM_H_MAP(MLOAD)
    ONOFF_EVM_H_MAP(MSTORE)
    ONOFF_EVM_H_MAP(MSTORE8)
    ONOFF_EVM_H_MAP(SLOAD)
    ONOFF_EVM_H_MAP(SSTORE)
    ONOFF_EVM_H_MAP(JUMP)
    ONOFF_EVM_H_MAP(JUMPI)
    ONOFF_EVM_H_MAP(PC)
    ONOFF_EVM_H_MAP(MSIZE)
    ONOFF_EVM_H_MAP(GAS)
    ONOFF_EVM_H_MAP(CREATE)
    ONOFF_EVM_H_MAP(CALL)
    ONOFF_EVM_H_MAP(CALLCODE)
    ONOFF_EVM_H_MAP(RETURN)
    ONOFF_EVM_H_MAP(DELEGATECALL)
    ONOFF_EVM_H_MAP(CREATE2)
    ONOFF_EVM_H_MAP(STATICCALL)
    ONOFF_EVM_H_MAP(REVERT)
    ONOFF_EVM_H_MAP(SELFDESTRUCT)
#undef ONOFF_EVM_H_MAP
    default:
      return Handler::INVALID;
  }
}

// The fixed cost the switch interpreter charges via one UseGas for
// "simple" ops. Checkpoint ops charge themselves in their handlers, so
// they never route through here (returning 0 keeps that invariant even if
// they did).
uint64_t StaticCost(uint8_t op) {
  if (IsPush(op) || IsDup(op) || IsSwap(op)) return gas::kVeryLow;
  switch (static_cast<Opcode>(op)) {
    case Opcode::ADD:
    case Opcode::SUB:
    case Opcode::LT:
    case Opcode::GT:
    case Opcode::SLT:
    case Opcode::SGT:
    case Opcode::EQ:
    case Opcode::ISZERO:
    case Opcode::AND:
    case Opcode::OR:
    case Opcode::XOR:
    case Opcode::NOT:
    case Opcode::BYTE:
    case Opcode::SHL:
    case Opcode::SHR:
    case Opcode::SAR:
    case Opcode::CALLDATALOAD:
      return gas::kVeryLow;
    case Opcode::MUL:
    case Opcode::DIV:
    case Opcode::SDIV:
    case Opcode::MOD:
    case Opcode::SMOD:
    case Opcode::SIGNEXTEND:
      return gas::kLow;
    case Opcode::ADDMOD:
    case Opcode::MULMOD:
    case Opcode::JUMP:
      return gas::kMid;
    case Opcode::JUMPI:
      return gas::kHigh;
    case Opcode::ADDRESS:
    case Opcode::ORIGIN:
    case Opcode::CALLER:
    case Opcode::CALLVALUE:
    case Opcode::CALLDATASIZE:
    case Opcode::CODESIZE:
    case Opcode::GASPRICE:
    case Opcode::RETURNDATASIZE:
    case Opcode::COINBASE:
    case Opcode::TIMESTAMP:
    case Opcode::NUMBER:
    case Opcode::DIFFICULTY:
    case Opcode::GASLIMIT:
    case Opcode::POP:
    case Opcode::PC:
    case Opcode::MSIZE:
      return gas::kBase;
    case Opcode::BALANCE:
      return gas::kBalance;
    case Opcode::EXTCODESIZE:
      return gas::kExtCode;
    case Opcode::SLOAD:
      return gas::kSload;
    case Opcode::BLOCKHASH:
      return gas::kBlockhash;
    case Opcode::JUMPDEST:
      return gas::kJumpdest;
    default:
      return 0;
  }
}

// Ops whose handler must run with the exact gas the switch interpreter
// would have at that pc: they observe gas (GAS, CALL-family forwarding),
// charge dynamic gas, or can fail for a non-gas reason mid-block.
bool IsCheckpoint(uint8_t op) {
  if (IsLog(op)) return true;
  switch (static_cast<Opcode>(op)) {
    case Opcode::SHA3:
    case Opcode::CALLDATACOPY:
    case Opcode::CODECOPY:
    case Opcode::EXTCODECOPY:
    case Opcode::RETURNDATACOPY:
    case Opcode::EXP:
    case Opcode::MLOAD:
    case Opcode::MSTORE:
    case Opcode::MSTORE8:
    case Opcode::SSTORE:
    case Opcode::GAS:
    case Opcode::CREATE:
    case Opcode::CREATE2:
    case Opcode::CALL:
    case Opcode::CALLCODE:
    case Opcode::DELEGATECALL:
    case Opcode::STATICCALL:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<bool> AnalyzeJumpdests(BytesView code) {
  std::vector<bool> valid(code.size(), false);
  for (size_t i = 0; i < code.size(); ++i) {
    uint8_t op = code[i];
    if (op == static_cast<uint8_t>(Opcode::JUMPDEST)) {
      valid[i] = true;
    } else if (IsPush(op)) {
      i += PushSize(op);
    }
  }
  return valid;
}

U256 EvalBinop(Handler h, const U256& a, const U256& b) {
  switch (h) {
    case Handler::ADD:
      return a + b;
    case Handler::MUL:
      return a * b;
    case Handler::SUB:
      return a - b;
    case Handler::DIV:
      return a / b;
    case Handler::SDIV:
      return a.SDiv(b);
    case Handler::MOD:
      return a % b;
    case Handler::SMOD:
      return a.SMod(b);
    case Handler::SIGNEXTEND:
      if (a.FitsUint64() && a.low64() < 31) {
        return b.SignExtend(static_cast<unsigned>(a.low64()));
      }
      return b;
    case Handler::LT:
      return U256(a < b ? 1 : 0);
    case Handler::GT:
      return U256(a > b ? 1 : 0);
    case Handler::SLT:
      return U256(a.SLess(b) ? 1 : 0);
    case Handler::SGT:
      return U256(b.SLess(a) ? 1 : 0);
    case Handler::EQ:
      return U256(a == b ? 1 : 0);
    case Handler::AND:
      return a & b;
    case Handler::OR:
      return a | b;
    case Handler::XOR:
      return a ^ b;
    case Handler::BYTE: {
      if (a.FitsUint64() && a.low64() < 32) {
        auto be = b.ToBigEndian();
        return U256(be[a.low64()]);
      }
      return U256();
    }
    case Handler::SHL:
      return a >= U256(256) ? U256() : b << static_cast<unsigned>(a.low64());
    case Handler::SHR:
      return a >= U256(256) ? U256() : b >> static_cast<unsigned>(a.low64());
    case Handler::SAR: {
      unsigned n =
          a >= U256(256) ? 256u : static_cast<unsigned>(a.low64());
      return b.Sar(n);
    }
    default:
      return U256();
  }
}

bool IsFusableBinop(uint8_t op) {
  switch (static_cast<Opcode>(op)) {
    case Opcode::ADD:
    case Opcode::MUL:
    case Opcode::SUB:
    case Opcode::DIV:
    case Opcode::SDIV:
    case Opcode::MOD:
    case Opcode::SMOD:
    case Opcode::SIGNEXTEND:
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
    case Opcode::SAR:
      return true;
    default:
      return false;
  }
}

Handler BinopHandler(uint8_t op) { return HandlerFor(op); }

CodeAnalysis Analyze(const Bytes& code) {
  CodeAnalysis an;
  an.jumpdests = AnalyzeJumpdests(code);
  const size_t n = code.size();
  an.jump_cell.assign(n, -1);

  struct Fix {
    uint32_t cell;
    uint32_t target_pc;
  };
  std::vector<Fix> fixups;

  bool open = false;
  size_t blk = 0;            // current block index
  uint32_t blk_cell = 0;     // its BEGIN_BLOCK cell index
  int64_t charge = -1;       // pending CHARGE cell, -1 = accumulate base_gas
  uint64_t seg_gas = 0;      // static gas of the current segment
  long h = 0, req = 0, maxh = 0;  // running stack height / need / peak

  auto flush_segment = [&]() {
    if (charge < 0) {
      an.blocks[blk].base_gas = seg_gas;
    } else {
      if (seg_gas > 0xffffffffull) an.switch_only = true;
      an.cells[static_cast<size_t>(charge)].imm =
          static_cast<uint32_t>(seg_gas);
    }
    seg_gas = 0;
  };

  auto close_block = [&]() {
    if (!open) return;
    flush_segment();
    CodeBlock& b = an.blocks[blk];
    b.ops_count = static_cast<uint32_t>(an.ops.size()) - b.ops_begin;
    b.stack_req = static_cast<uint16_t>(
        req > kStackSentinel ? kStackSentinel : (req < 0 ? 0 : req));
    b.stack_max = static_cast<uint16_t>(
        maxh > kStackSentinel ? kStackSentinel : (maxh < 0 ? 0 : maxh));
    // Aggregate (opcode, count) pairs; blocks see few distinct opcodes so
    // the linear inner scan stays cheap.
    b.agg_begin = static_cast<uint32_t>(an.agg.size());
    for (size_t i = b.ops_begin; i < an.ops.size(); ++i) {
      uint8_t op = an.ops[i];
      bool found = false;
      for (size_t j = b.agg_begin; j < an.agg.size(); ++j) {
        if (an.agg[j].first == op) {
          ++an.agg[j].second;
          found = true;
          break;
        }
      }
      if (!found) an.agg.emplace_back(op, 1u);
    }
    b.agg_end = static_cast<uint32_t>(an.agg.size());
    open = false;
  };

  auto open_block = [&](size_t at_pc) {
    close_block();
    blk = an.blocks.size();
    an.blocks.emplace_back();
    CodeBlock& b = an.blocks.back();
    b.start_pc = static_cast<uint32_t>(at_pc);
    b.ops_begin = static_cast<uint32_t>(an.ops.size());
    h = req = maxh = 0;
    charge = -1;
    seg_gas = 0;
    blk_cell = static_cast<uint32_t>(an.cells.size());
    CodeCell c;
    c.op = static_cast<uint8_t>(Handler::BEGIN_BLOCK);
    c.imm = static_cast<uint32_t>(blk);
    c.pc = static_cast<uint32_t>(at_pc);
    an.cells.push_back(c);
    open = true;
  };

  // Records one original opcode: counters list + stack accounting.
  auto account = [&](uint8_t byte) {
    an.ops.push_back(byte);
    const OpcodeInfo& info = GetOpcodeInfo(byte);
    if (info.defined) {
      long need = static_cast<long>(info.stack_in);
      if (need - h > req) req = need - h;
      h += static_cast<long>(info.stack_out) - need;
      if (h > maxh) maxh = h;
    }
  };

  auto emit = [&](Handler hd, uint32_t imm, size_t pc, uint8_t arg) {
    CodeCell c;
    c.op = static_cast<uint8_t>(hd);
    c.imm = imm;
    c.pc = static_cast<uint32_t>(pc);
    c.arg = arg;
    c.ops_end =
        static_cast<uint32_t>(an.ops.size()) - an.blocks[blk].ops_begin;
    an.cells.push_back(c);
    return static_cast<uint32_t>(an.cells.size() - 1);
  };

  // Decodes PUSHn immediate data, zero-padded past the end of code.
  auto push_value = [&](size_t pc, int size) {
    U256 v;
    for (int i = 0; i < size; ++i) {
      uint8_t b = pc + 1 + static_cast<size_t>(i) < n
                      ? code[pc + 1 + static_cast<size_t>(i)]
                      : 0;
      v = (v << 8) | U256(b);
    }
    return v;
  };

  auto pool_index = [&](const U256& v) {
    an.pool.push_back(v);
    return static_cast<uint32_t>(an.pool.size() - 1);
  };

  size_t pc = 0;
  while (pc < n) {
    uint8_t byte = code[pc];
    if (byte == static_cast<uint8_t>(Opcode::JUMPDEST)) {
      open_block(pc);  // a jump target always begins a fresh block
      an.jump_cell[pc] = static_cast<int32_t>(blk_cell);
      account(byte);
      seg_gas += gas::kJumpdest;
      ++pc;
      continue;
    }
    if (!open) open_block(pc);
    const OpcodeInfo& info = GetOpcodeInfo(byte);
    if (!info.defined) {
      account(byte);
      emit(Handler::INVALID, 0, pc, 0);
      close_block();
      ++pc;
      continue;
    }
    if (IsPush(byte)) {
      int sz = PushSize(byte);
      size_t after = pc + 1 + static_cast<size_t>(sz);
      U256 v = push_value(pc, sz);
      if (after < n) {
        uint8_t b2 = code[after];
        if (b2 == static_cast<uint8_t>(Opcode::JUMP)) {
          account(byte);
          account(b2);
          seg_gas += gas::kVeryLow + gas::kMid;
          bool ok = v.FitsUint64() && v.low64() < n && an.jumpdests[v.low64()];
          if (ok) {
            uint32_t ci = emit(Handler::PUSH_JUMP, 0, pc, 0);
            fixups.push_back({ci, static_cast<uint32_t>(v.low64())});
          } else {
            emit(Handler::PUSH_JUMP_BAD, 0, pc, 0);
          }
          close_block();
          pc = after + 1;
          continue;
        }
        if (b2 == static_cast<uint8_t>(Opcode::JUMPI)) {
          account(byte);
          account(b2);
          seg_gas += gas::kVeryLow + gas::kHigh;
          bool ok = v.FitsUint64() && v.low64() < n && an.jumpdests[v.low64()];
          uint32_t ci = emit(
              ok ? Handler::PUSH_JUMPI : Handler::PUSH_JUMPI_BAD, 0, pc, 0);
          if (ok) fixups.push_back({ci, static_cast<uint32_t>(v.low64())});
          close_block();  // the false branch falls into the next block
          pc = after + 1;
          continue;
        }
        if (IsPush(b2)) {
          int sz2 = PushSize(b2);
          size_t after2 = after + 1 + static_cast<size_t>(sz2);
          if (after2 < n && IsFusableBinop(code[after2])) {
            uint8_t b3 = code[after2];
            U256 v2 = push_value(after, sz2);
            account(byte);
            account(b2);
            account(b3);
            seg_gas += 2 * gas::kVeryLow + StaticCost(b3);
            // The second push is on top, so it binds to the switch's
            // first-popped operand.
            U256 folded = EvalBinop(HandlerFor(b3), v2, v);
            emit(Handler::PUSH, pool_index(folded), pc, 0);
            pc = after2 + 1;
            continue;
          }
        }
        if (IsFusableBinop(b2)) {
          account(byte);
          account(b2);
          seg_gas += gas::kVeryLow + StaticCost(b2);
          emit(Handler::PUSH_BINOP, pool_index(v), pc,
               static_cast<uint8_t>(HandlerFor(b2)));
          pc = after + 1;
          continue;
        }
      }
      account(byte);
      seg_gas += gas::kVeryLow;
      emit(Handler::PUSH, pool_index(v), pc, 0);
      pc = after;
      continue;
    }
    if (IsDup(byte)) {
      if (pc + 1 < n && code[pc + 1] == static_cast<uint8_t>(Opcode::MLOAD)) {
        account(byte);
        account(code[pc + 1]);
        seg_gas += gas::kVeryLow;  // the DUP; MLOAD charges itself
        flush_segment();
        emit(Handler::DUP_MLOAD, 0, pc,
             static_cast<uint8_t>(DupDepth(byte)));
        charge = emit(Handler::CHARGE, 0, pc + 2, 0);
        pc += 2;
        continue;
      }
      account(byte);
      seg_gas += gas::kVeryLow;
      emit(Handler::DUP, 0, pc, static_cast<uint8_t>(DupDepth(byte)));
      ++pc;
      continue;
    }
    if (IsSwap(byte)) {
      account(byte);
      seg_gas += gas::kVeryLow;
      emit(Handler::SWAP, 0, pc, static_cast<uint8_t>(SwapDepth(byte)));
      ++pc;
      continue;
    }
    if (IsLog(byte)) {
      account(byte);
      flush_segment();
      emit(Handler::LOG, 0, pc, static_cast<uint8_t>(LogTopics(byte)));
      charge = emit(Handler::CHARGE, 0, pc + 1, 0);
      ++pc;
      continue;
    }
    account(byte);
    if (IsCheckpoint(byte)) {
      flush_segment();
      emit(HandlerFor(byte), 0, pc, 0);
      charge = emit(Handler::CHARGE, 0, pc + 1, 0);
      ++pc;
      continue;
    }
    seg_gas += StaticCost(byte);
    emit(HandlerFor(byte), 0, pc, 0);
    if (info.terminator || byte == static_cast<uint8_t>(Opcode::JUMPI)) {
      close_block();
    }
    ++pc;
  }
  close_block();

  // Falling off the end of code (including a trailing JUMPI's false
  // branch) halts with success without executing anything further.
  {
    CodeCell c;
    c.op = static_cast<uint8_t>(Handler::IMPLICIT_STOP);
    c.pc = static_cast<uint32_t>(n);
    c.ops_end = an.blocks.empty() ? 0 : an.blocks.back().ops_count;
    an.cells.push_back(c);
  }

  for (const Fix& f : fixups) {
    assert(an.jump_cell[f.target_pc] >= 0);
    an.cells[f.cell].imm = static_cast<uint32_t>(an.jump_cell[f.target_pc]);
  }
  return an;
}

size_t RetainedBytes(const CodeAnalysis& an) {
  return sizeof(CodeAnalysis) + (an.jumpdests.capacity() + 7) / 8 +
         an.cells.capacity() * sizeof(CodeCell) +
         an.blocks.capacity() * sizeof(CodeBlock) + an.ops.capacity() +
         an.agg.capacity() * sizeof(an.agg[0]) +
         an.pool.capacity() * sizeof(U256) +
         an.jump_cell.capacity() * sizeof(int32_t);
}

CodeAnalysisCache& CodeAnalysisCache::Global() {
  static CodeAnalysisCache cache;
  return cache;
}

std::shared_ptr<const CodeAnalysis> CodeAnalysisCache::Get(
    const Hash32& code_hash, const Bytes& code) {
  static obs::Counter* hits = obs::GetCounterOrNull("evm.analysis_cache.hits");
  static obs::Counter* misses =
      obs::GetCounterOrNull("evm.analysis_cache.misses");
  std::string key(reinterpret_cast<const char*>(code_hash.data()),
                  code_hash.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (hits != nullptr) hits->Inc();
      return it->second.analysis;
    }
  }
  if (misses != nullptr) misses->Inc();
  // Build outside the lock: concurrent misses on distinct codes must not
  // serialize behind one another's decode.
  auto built = std::make_shared<const CodeAnalysis>(Analyze(code));
  const size_t bytes = RetainedBytes(*built);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) return it->second.analysis;  // built first elsewhere
  if (bytes > kBudgetBytes) return built;
  // Evicted analyses stay alive for as long as a frame still holds them.
  while (bytes_ + bytes > kBudgetBytes) {
    auto oldest = map_.find(order_.front());
    bytes_ -= oldest->second.bytes;
    map_.erase(oldest);
    order_.pop_front();
  }
  order_.push_back(key);
  bytes_ += bytes;
  map_.emplace(std::move(key), Entry{built, bytes});
  return built;
}

size_t CodeAnalysisCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

size_t CodeAnalysisCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

void CodeAnalysisCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  order_.clear();
  bytes_ = 0;
}

}  // namespace onoff::evm
