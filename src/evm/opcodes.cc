#include "evm/opcodes.h"

#include <array>
#include <string>

#include "evm/gas.h"

namespace onoff::evm {

namespace {

struct Entry {
  uint8_t op;
  std::string_view name;
  uint8_t in;
  uint8_t out;
  uint64_t static_gas;
  bool dynamic_gas = false;
};

constexpr bool kDynamic = true;

constexpr Entry kEntries[] = {
    {0x00, "STOP", 0, 0, 0},
    {0x01, "ADD", 2, 1, gas::kVeryLow},
    {0x02, "MUL", 2, 1, gas::kLow},
    {0x03, "SUB", 2, 1, gas::kVeryLow},
    {0x04, "DIV", 2, 1, gas::kLow},
    {0x05, "SDIV", 2, 1, gas::kLow},
    {0x06, "MOD", 2, 1, gas::kLow},
    {0x07, "SMOD", 2, 1, gas::kLow},
    {0x08, "ADDMOD", 3, 1, gas::kMid},
    {0x09, "MULMOD", 3, 1, gas::kMid},
    {0x0a, "EXP", 2, 1, gas::kExp, kDynamic},
    {0x0b, "SIGNEXTEND", 2, 1, gas::kLow},
    {0x10, "LT", 2, 1, gas::kVeryLow},
    {0x11, "GT", 2, 1, gas::kVeryLow},
    {0x12, "SLT", 2, 1, gas::kVeryLow},
    {0x13, "SGT", 2, 1, gas::kVeryLow},
    {0x14, "EQ", 2, 1, gas::kVeryLow},
    {0x15, "ISZERO", 1, 1, gas::kVeryLow},
    {0x16, "AND", 2, 1, gas::kVeryLow},
    {0x17, "OR", 2, 1, gas::kVeryLow},
    {0x18, "XOR", 2, 1, gas::kVeryLow},
    {0x19, "NOT", 1, 1, gas::kVeryLow},
    {0x1a, "BYTE", 2, 1, gas::kVeryLow},
    {0x1b, "SHL", 2, 1, gas::kVeryLow},
    {0x1c, "SHR", 2, 1, gas::kVeryLow},
    {0x1d, "SAR", 2, 1, gas::kVeryLow},
    {0x20, "SHA3", 2, 1, gas::kSha3, kDynamic},
    {0x30, "ADDRESS", 0, 1, gas::kBase},
    {0x31, "BALANCE", 1, 1, gas::kBalance},
    {0x32, "ORIGIN", 0, 1, gas::kBase},
    {0x33, "CALLER", 0, 1, gas::kBase},
    {0x34, "CALLVALUE", 0, 1, gas::kBase},
    {0x35, "CALLDATALOAD", 1, 1, gas::kVeryLow},
    {0x36, "CALLDATASIZE", 0, 1, gas::kBase},
    {0x37, "CALLDATACOPY", 3, 0, gas::kVeryLow, kDynamic},
    {0x38, "CODESIZE", 0, 1, gas::kBase},
    {0x39, "CODECOPY", 3, 0, gas::kVeryLow, kDynamic},
    {0x3a, "GASPRICE", 0, 1, gas::kBase},
    {0x3b, "EXTCODESIZE", 1, 1, gas::kExtCode},
    {0x3c, "EXTCODECOPY", 4, 0, gas::kExtCode, kDynamic},
    {0x3d, "RETURNDATASIZE", 0, 1, gas::kBase},
    {0x3e, "RETURNDATACOPY", 3, 0, gas::kVeryLow, kDynamic},
    {0x40, "BLOCKHASH", 1, 1, gas::kBlockhash},
    {0x41, "COINBASE", 0, 1, gas::kBase},
    {0x42, "TIMESTAMP", 0, 1, gas::kBase},
    {0x43, "NUMBER", 0, 1, gas::kBase},
    {0x44, "DIFFICULTY", 0, 1, gas::kBase},
    {0x45, "GASLIMIT", 0, 1, gas::kBase},
    {0x50, "POP", 1, 0, gas::kBase},
    {0x51, "MLOAD", 1, 1, gas::kVeryLow, kDynamic},
    {0x52, "MSTORE", 2, 0, gas::kVeryLow, kDynamic},
    {0x53, "MSTORE8", 2, 0, gas::kVeryLow, kDynamic},
    {0x54, "SLOAD", 1, 1, gas::kSload},
    {0x55, "SSTORE", 2, 0, 0, kDynamic},  // kSstoreSet or kSstoreReset
    {0x56, "JUMP", 1, 0, gas::kMid},
    {0x57, "JUMPI", 2, 0, gas::kHigh},
    {0x58, "PC", 0, 1, gas::kBase},
    {0x59, "MSIZE", 0, 1, gas::kBase},
    {0x5a, "GAS", 0, 1, gas::kBase, kDynamic},
    {0x5b, "JUMPDEST", 0, 0, gas::kJumpdest},
    {0xf0, "CREATE", 3, 1, gas::kCreate, kDynamic},
    {0xf1, "CALL", 7, 1, gas::kCall, kDynamic},
    {0xf2, "CALLCODE", 7, 1, gas::kCall, kDynamic},
    {0xf3, "RETURN", 2, 0, 0, kDynamic},
    {0xf4, "DELEGATECALL", 6, 1, gas::kCall, kDynamic},
    {0xf5, "CREATE2", 4, 1, gas::kCreate, kDynamic},
    {0xfa, "STATICCALL", 6, 1, gas::kCall, kDynamic},
    {0xfd, "REVERT", 2, 0, 0, kDynamic},
    {0xfe, "INVALID", 0, 0, 0, kDynamic},
    {0xff, "SELFDESTRUCT", 1, 0, gas::kSelfdestruct, kDynamic},
};

struct Table {
  std::array<OpcodeInfo, 256> info;
  // Stable storage for generated PUSH/DUP/SWAP/LOG names.
  std::array<std::string, 256> names;

  Table() {
    for (int i = 0; i < 256; ++i) {
      info[i] = OpcodeInfo{"INVALID", 0, 0, 0, false, false, false, 0};
    }
    for (const Entry& e : kEntries) {
      info[e.op] = OpcodeInfo{e.name, e.in, e.out, 0, true, false,
                              e.dynamic_gas, e.static_gas};
    }
    // Opcodes after which control never reaches the next byte.
    for (uint8_t op : {0x00, 0x56, 0xf3, 0xfd, 0xfe, 0xff}) {
      info[op].terminator = true;
    }
    for (int n = 1; n <= 32; ++n) {
      uint8_t op = static_cast<uint8_t>(0x5f + n);
      names[op] = "PUSH" + std::to_string(n);
      info[op] = OpcodeInfo{names[op], 0, 1, static_cast<uint8_t>(n), true,
                            false, false, gas::kVeryLow};
    }
    for (int n = 1; n <= 16; ++n) {
      uint8_t op = static_cast<uint8_t>(0x7f + n);
      names[op] = "DUP" + std::to_string(n);
      info[op] = OpcodeInfo{names[op], static_cast<uint8_t>(n),
                            static_cast<uint8_t>(n + 1), 0, true, false,
                            false, gas::kVeryLow};
      op = static_cast<uint8_t>(0x8f + n);
      names[op] = "SWAP" + std::to_string(n);
      info[op] = OpcodeInfo{names[op], static_cast<uint8_t>(n + 1),
                            static_cast<uint8_t>(n + 1), 0, true, false,
                            false, gas::kVeryLow};
    }
    for (int n = 0; n <= 4; ++n) {
      uint8_t op = static_cast<uint8_t>(0xa0 + n);
      names[op] = "LOG" + std::to_string(n);
      info[op] = OpcodeInfo{names[op], static_cast<uint8_t>(n + 2), 0, 0, true,
                            false, kDynamic, gas::kLog + gas::kLogTopic * n};
    }
  }
};

const Table& GetTable() {
  static const Table& table = *new Table();
  return table;
}

}  // namespace

const OpcodeInfo& GetOpcodeInfo(uint8_t op) { return GetTable().info[op]; }

std::optional<uint8_t> OpcodeFromName(std::string_view name) {
  const Table& table = GetTable();
  for (int i = 0; i < 256; ++i) {
    if (table.info[i].defined && table.info[i].name == name) {
      return static_cast<uint8_t>(i);
    }
  }
  return std::nullopt;
}

}  // namespace onoff::evm
