#include "analysis/cfg.h"

#include <cstdio>

#include "evm/analysis_cache.h"

namespace onoff::analysis {

using evm::GetOpcodeInfo;
using evm::Opcode;
using evm::OpcodeInfo;

size_t ControlFlowGraph::EdgeCount() const {
  size_t edges = 0;
  for (const auto& [pc, block] : blocks) edges += block.successors.size();
  return edges;
}

std::vector<bool> ComputeJumpdests(BytesView code) {
  // Single source of truth with the interpreter's jumpdest validation.
  return evm::AnalyzeJumpdests(code);
}

Instruction DecodeInstruction(BytesView code, uint32_t pc) {
  Instruction ins;
  ins.pc = pc;
  ins.opcode = code[pc];
  if (evm::IsPush(ins.opcode)) {
    int n = evm::PushSize(ins.opcode);
    ins.immediate_size = static_cast<uint8_t>(n);
    ins.truncated = pc + 1 + n > code.size();
    U256 v;
    for (int i = 0; i < n; ++i) {
      uint8_t b = pc + 1 + i < code.size() ? code[pc + 1 + i] : 0;
      v = (v << 8) | U256(b);
    }
    ins.immediate = v;
  }
  return ins;
}

namespace {

uint32_t EffectOf(uint8_t op) {
  if (evm::IsLog(op)) return effect::kLog;
  switch (static_cast<Opcode>(op)) {
    case Opcode::SSTORE:
      return effect::kSstore;
    case Opcode::SLOAD:
      return effect::kSload;
    case Opcode::CALL:
    case Opcode::CALLCODE:
      return effect::kCall;
    case Opcode::DELEGATECALL:
      return effect::kDelegateCall;
    case Opcode::STATICCALL:
      return effect::kStaticCall;
    case Opcode::CREATE:
    case Opcode::CREATE2:
      return effect::kCreate;
    case Opcode::SELFDESTRUCT:
      return effect::kSelfdestruct;
    default:
      return 0;
  }
}

}  // namespace

BasicBlock DecodeBlock(BytesView code, uint32_t start) {
  BasicBlock block;
  block.start_pc = start;
  uint32_t pc = start;
  while (pc < code.size()) {
    Instruction ins = DecodeInstruction(code, pc);
    const OpcodeInfo& info = GetOpcodeInfo(ins.opcode);
    block.instructions.push_back(ins);
    block.effects |= EffectOf(ins.opcode);
    uint32_t next = pc + 1 + ins.immediate_size;
    // Undefined bytes and truncated PUSHes end the block: the analyzer
    // reports them and never follows past.
    if (!info.defined || ins.truncated || info.terminator ||
        ins.opcode == static_cast<uint8_t>(Opcode::JUMPI)) {
      pc = next;
      break;
    }
    // A JUMPDEST starts a new block (it may be a jump target).
    if (next < code.size() &&
        code[next] == static_cast<uint8_t>(Opcode::JUMPDEST)) {
      pc = next;
      break;
    }
    pc = next;
  }
  block.end_pc = pc < code.size() ? pc : static_cast<uint32_t>(code.size());
  return block;
}

std::string EffectsToString(uint32_t effects) {
  std::string out;
  auto add = [&](uint32_t flag, const char* name) {
    if ((effects & flag) != 0) {
      if (!out.empty()) out += "|";
      out += name;
    }
  };
  add(effect::kSstore, "SSTORE");
  add(effect::kLog, "LOG");
  add(effect::kCall, "CALL");
  add(effect::kDelegateCall, "DELEGATECALL");
  add(effect::kCreate, "CREATE");
  add(effect::kSelfdestruct, "SELFDESTRUCT");
  add(effect::kStaticCall, "STATICCALL");
  add(effect::kSload, "SLOAD");
  return out.empty() ? "none" : out;
}

std::string InstructionToString(const Instruction& ins) {
  const OpcodeInfo& info = GetOpcodeInfo(ins.opcode);
  if (!info.defined) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%02x", ins.opcode);
    return std::string("UNDEFINED ") + buf;
  }
  std::string out(info.name);
  if (ins.immediate_size > 0) {
    out += " 0x";
    out += ins.immediate.ToHex();
  }
  return out;
}

}  // namespace onoff::analysis
