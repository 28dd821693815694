// Basic-block control-flow graph over EVM bytecode.
//
// Blocks are discovered on demand from jump targets (not by linear sweep),
// so data bytes and PUSH immediates never masquerade as instructions. A
// block starts at pc 0, at a JUMPDEST, or at the fallthrough of a JUMPI, and
// ends at a terminator opcode (STOP/JUMP/RETURN/REVERT/INVALID/
// SELFDESTRUCT), at a JUMPI, just before the next JUMPDEST, or at the end of
// code.

#ifndef ONOFFCHAIN_ANALYSIS_CFG_H_
#define ONOFFCHAIN_ANALYSIS_CFG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "evm/opcodes.h"
#include "support/bytes.h"
#include "support/u256.h"

namespace onoff::analysis {

// State effects an instruction can have, as per-block bit flags.
namespace effect {
inline constexpr uint32_t kSstore = 1u << 0;
inline constexpr uint32_t kSload = 1u << 1;
inline constexpr uint32_t kLog = 1u << 2;
inline constexpr uint32_t kCall = 1u << 3;        // CALL / CALLCODE
inline constexpr uint32_t kDelegateCall = 1u << 4;
inline constexpr uint32_t kStaticCall = 1u << 5;
inline constexpr uint32_t kCreate = 1u << 6;      // CREATE / CREATE2
inline constexpr uint32_t kSelfdestruct = 1u << 7;

// Effects that can mutate chain state or push data out of the contract —
// the ones a declared-private function must never reach. STATICCALL is
// excluded: it cannot write state.
inline constexpr uint32_t kStateLeakMask =
    kSstore | kLog | kCall | kDelegateCall | kCreate | kSelfdestruct;
}  // namespace effect

// "SSTORE|LOG|CALL" — for reports and diagnostics ("none" when 0).
std::string EffectsToString(uint32_t effects);

struct Instruction {
  uint32_t pc = 0;
  uint8_t opcode = 0;
  uint8_t immediate_size = 0;  // PUSHn only
  bool truncated = false;      // PUSH immediate runs past end of code
  U256 immediate;              // zero-extended when truncated
};

struct BasicBlock {
  uint32_t start_pc = 0;
  uint32_t end_pc = 0;  // exclusive (first byte after the block)
  std::vector<Instruction> instructions;
  uint32_t effects = 0;  // union of effect:: flags over the instructions
  // Resolved successor block start pcs; filled by the analyzer once jump
  // targets are known.
  std::vector<uint32_t> successors;
};

struct ControlFlowGraph {
  // Reachable blocks keyed by start pc.
  std::map<uint32_t, BasicBlock> blocks;

  size_t EdgeCount() const;
};

// Marks every JUMPDEST byte that is a real instruction (not inside a PUSH
// immediate) — the same rule the interpreter enforces on JUMP/JUMPI.
std::vector<bool> ComputeJumpdests(BytesView code);

// Decodes one instruction at `pc` (pc must be < code.size()).
Instruction DecodeInstruction(BytesView code, uint32_t pc);

// Decodes the basic block starting at `start`.
BasicBlock DecodeBlock(BytesView code, uint32_t start);

// "PUSH2 0x01a4" — for diagnostics.
std::string InstructionToString(const Instruction& ins);

}  // namespace onoff::analysis

#endif  // ONOFFCHAIN_ANALYSIS_CFG_H_
