// EVM opcode set (Byzantium/Constantinople era, matching the paper's 2019
// Kovan deployment target) plus per-opcode metadata used by the interpreter,
// assembler and disassembler. The table is also the one place the fixed
// part of each opcode's gas is written down for the threaded decoder and
// the static analyzer; the reference switch loop keeps its own literals so
// it can check the table.

#ifndef ONOFFCHAIN_EVM_OPCODES_H_
#define ONOFFCHAIN_EVM_OPCODES_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace onoff::evm {

enum class Opcode : uint8_t {
  // 0x0* - arithmetic
  STOP = 0x00,
  ADD = 0x01,
  MUL = 0x02,
  SUB = 0x03,
  DIV = 0x04,
  SDIV = 0x05,
  MOD = 0x06,
  SMOD = 0x07,
  ADDMOD = 0x08,
  MULMOD = 0x09,
  EXP = 0x0a,
  SIGNEXTEND = 0x0b,
  // 0x1* - comparison / bitwise
  LT = 0x10,
  GT = 0x11,
  SLT = 0x12,
  SGT = 0x13,
  EQ = 0x14,
  ISZERO = 0x15,
  AND = 0x16,
  OR = 0x17,
  XOR = 0x18,
  NOT = 0x19,
  BYTE = 0x1a,
  SHL = 0x1b,
  SHR = 0x1c,
  SAR = 0x1d,
  // 0x20
  SHA3 = 0x20,
  // 0x3* - environment
  ADDRESS = 0x30,
  BALANCE = 0x31,
  ORIGIN = 0x32,
  CALLER = 0x33,
  CALLVALUE = 0x34,
  CALLDATALOAD = 0x35,
  CALLDATASIZE = 0x36,
  CALLDATACOPY = 0x37,
  CODESIZE = 0x38,
  CODECOPY = 0x39,
  GASPRICE = 0x3a,
  EXTCODESIZE = 0x3b,
  EXTCODECOPY = 0x3c,
  RETURNDATASIZE = 0x3d,
  RETURNDATACOPY = 0x3e,
  // 0x4* - block
  BLOCKHASH = 0x40,
  COINBASE = 0x41,
  TIMESTAMP = 0x42,
  NUMBER = 0x43,
  DIFFICULTY = 0x44,
  GASLIMIT = 0x45,
  // 0x5* - stack / memory / storage / control
  POP = 0x50,
  MLOAD = 0x51,
  MSTORE = 0x52,
  MSTORE8 = 0x53,
  SLOAD = 0x54,
  SSTORE = 0x55,
  JUMP = 0x56,
  JUMPI = 0x57,
  PC = 0x58,
  MSIZE = 0x59,
  GAS = 0x5a,
  JUMPDEST = 0x5b,
  // 0x60..0x7f - PUSH1..PUSH32
  PUSH1 = 0x60,
  PUSH32 = 0x7f,
  // 0x80..0x8f - DUP1..DUP16
  DUP1 = 0x80,
  DUP2 = 0x81,
  DUP3 = 0x82,
  DUP4 = 0x83,
  DUP16 = 0x8f,
  // 0x90..0x9f - SWAP1..SWAP16
  SWAP1 = 0x90,
  SWAP2 = 0x91,
  SWAP3 = 0x92,
  SWAP4 = 0x93,
  SWAP16 = 0x9f,
  // 0xa0..0xa4 - LOG0..LOG4
  LOG0 = 0xa0,
  LOG4 = 0xa4,
  // 0xf* - system
  CREATE = 0xf0,
  CALL = 0xf1,
  CALLCODE = 0xf2,
  RETURN = 0xf3,
  DELEGATECALL = 0xf4,
  CREATE2 = 0xf5,
  STATICCALL = 0xfa,
  REVERT = 0xfd,
  INVALID = 0xfe,
  SELFDESTRUCT = 0xff,
};

// Metadata for one opcode.
struct OpcodeInfo {
  std::string_view name;
  // Stack items consumed / produced.
  uint8_t stack_in;
  uint8_t stack_out;
  // Immediate data bytes following the opcode (PUSHn only).
  uint8_t immediate_size;
  bool defined;
  // Unconditionally ends the basic block: control never falls through to the
  // next instruction (STOP, JUMP, RETURN, REVERT, INVALID, SELFDESTRUCT).
  bool terminator;
  // The charge has a part that depends on runtime values (memory growth,
  // words, exponent bytes, the SSTORE tier, call surcharges), the opcode
  // reads the remaining gas (GAS), or it can fail for a reason other than
  // gas (INVALID, a write in a static frame, a short return buffer). The
  // threaded interpreter lets its handler charge all of its gas, and hoists
  // the gas of the other opcodes into per-block charges.
  bool dynamic_gas;
  // The fixed part every execution pays: kVeryLow for PUSH/DUP/SWAP,
  // kLog + n * kLogTopic for LOGn, kCall for the calls, 0 for STOP, RETURN
  // and REVERT. The whole charge unless dynamic_gas.
  uint64_t static_gas;
};

// Returns the table entry for any byte (undefined opcodes have
// defined == false and name "INVALID").
const OpcodeInfo& GetOpcodeInfo(uint8_t op);

// Reverse lookup by mnemonic (e.g. "ADD", "PUSH3", "DUP2"); nullopt for
// unknown names.
std::optional<uint8_t> OpcodeFromName(std::string_view name);

inline bool IsPush(uint8_t op) { return op >= 0x60 && op <= 0x7f; }
inline int PushSize(uint8_t op) { return op - 0x5f; }  // valid for PUSHn
inline bool IsDup(uint8_t op) { return op >= 0x80 && op <= 0x8f; }
inline int DupDepth(uint8_t op) { return op - 0x7f; }  // valid for DUPn
inline bool IsSwap(uint8_t op) { return op >= 0x90 && op <= 0x9f; }
inline int SwapDepth(uint8_t op) { return op - 0x8f; }  // valid for SWAPn
inline bool IsLog(uint8_t op) { return op >= 0xa0 && op <= 0xa4; }
inline int LogTopics(uint8_t op) { return op - 0xa0; }  // valid for LOGn

}  // namespace onoff::evm

#endif  // ONOFFCHAIN_EVM_OPCODES_H_
