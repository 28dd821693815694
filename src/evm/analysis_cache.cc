#include "evm/analysis_cache.h"

#include <array>
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

// Opcode byte -> the handler of its name, expanded from the handler list;
// JUMPDEST (which opens a block and has no cell) and undefined bytes map
// to INVALID.
constexpr std::array<Handler, 256> kHandlerOf = [] {
  std::array<Handler, 256> table{};
  table.fill(Handler::INVALID);
#define ONOFF_EVM_H_MAP(name) \
  table[static_cast<uint8_t>(Opcode::name)] = Handler::name;
#define ONOFF_EVM_H_MAP_RANGE(name, first, last)     \
  for (int op = static_cast<int>(Opcode::first);     \
       op <= static_cast<int>(Opcode::last); ++op) { \
    table[op] = Handler::name;                       \
  }
  ONOFF_EVM_OPCODE_HANDLERS(ONOFF_EVM_H_MAP, ONOFF_EVM_H_MAP_RANGE)
#undef ONOFF_EVM_H_MAP
#undef ONOFF_EVM_H_MAP_RANGE
  return table;
}();

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
  const OpcodeInfo& info = GetOpcodeInfo(op);
  return info.defined && !info.dynamic_gas && info.stack_in == 2 &&
         info.stack_out == 1;
}

Handler BinopHandler(uint8_t op) { return kHandlerOf[op]; }

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

  // Records one original opcode: counters list, stack accounting, and its
  // gas hoisted into the segment unless its handler charges it.
  auto account = [&](uint8_t byte) {
    an.ops.push_back(byte);
    const OpcodeInfo& info = GetOpcodeInfo(byte);
    if (info.defined) {
      long need = static_cast<long>(info.stack_in);
      if (need - h > req) req = need - h;
      h += static_cast<long>(info.stack_out) - need;
      if (h > maxh) maxh = h;
    }
    if (!info.dynamic_gas) seg_gas += info.static_gas;
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
            // The second push is on top, so it binds to the switch's
            // first-popped operand.
            U256 folded = EvalBinop(kHandlerOf[b3], v2, v);
            emit(Handler::PUSH, pool_index(folded), pc, 0);
            pc = after2 + 1;
            continue;
          }
        }
        if (IsFusableBinop(b2)) {
          account(byte);
          account(b2);
          emit(Handler::PUSH_BINOP, pool_index(v), pc,
               static_cast<uint8_t>(kHandlerOf[b2]));
          pc = after + 1;
          continue;
        }
      }
      account(byte);
      emit(Handler::PUSH, pool_index(v), pc, 0);
      pc = after;
      continue;
    }
    if (IsDup(byte)) {
      if (pc + 1 < n && code[pc + 1] == static_cast<uint8_t>(Opcode::MLOAD)) {
        account(byte);
        account(code[pc + 1]);  // MLOAD charges itself
        flush_segment();
        emit(Handler::DUP_MLOAD, 0, pc,
             static_cast<uint8_t>(DupDepth(byte)));
        charge = emit(Handler::CHARGE, 0, pc + 2, 0);
        pc += 2;
        continue;
      }
      account(byte);
      emit(Handler::DUP, 0, pc, static_cast<uint8_t>(DupDepth(byte)));
      ++pc;
      continue;
    }
    if (IsSwap(byte)) {
      account(byte);
      emit(Handler::SWAP, 0, pc, static_cast<uint8_t>(SwapDepth(byte)));
      ++pc;
      continue;
    }
    account(byte);
    emit(kHandlerOf[byte], 0, pc,
         IsLog(byte) ? static_cast<uint8_t>(LogTopics(byte)) : 0);
    if (info.dynamic_gas && !info.terminator) {
      // A checkpoint charges its own gas; the static gas of the ops after
      // it hangs off a CHARGE cell.
      flush_segment();
      charge = emit(Handler::CHARGE, 0, pc + 1, 0);
    } else if (info.terminator ||
               byte == static_cast<uint8_t>(Opcode::JUMPI)) {
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
