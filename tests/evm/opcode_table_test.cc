// The opcode table's gas schedule (OpcodeInfo::static_gas and dynamic_gas)
// checked against the reference switch loop, which keeps its own literal
// constants, and against the threaded loop, which hoists the table's
// static gas. The threaded decoder's checkpoints and the analyzer's
// fixed costs both read these two fields.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "evm/analysis_cache.h"
#include "evm/evm.h"
#include "evm/opcodes.h"
#include "state/world_state.h"

namespace onoff::evm {
namespace {

const Address kContract = Address::FromWord(U256(0xcc));
const Address kSender = Address::FromWord(U256(0xaa));
constexpr uint64_t kGas = 1'000'000;
constexpr uint8_t kPush1 = 0x60;

// Runs `code` once under `mode`; returns the gas it used and its outcome.
std::pair<uint64_t, Outcome> RunOnce(DispatchMode mode, const Bytes& code) {
  state::WorldState world;
  world.AddBalance(kSender, U256(1'000'000));
  world.SetCode(kContract, code);
  Evm evm(&world, BlockContext{}, TxContext{kSender, U256(1)});
  evm.set_dispatch_mode(mode);
  CallMessage msg;
  msg.caller = kSender;
  msg.to = kContract;
  msg.gas = kGas;
  ExecResult res = evm.Call(msg);
  return {kGas - res.gas_left, res.outcome};
}

std::string Name(uint8_t op) {
  char hex[8];
  std::snprintf(hex, sizeof(hex), " (0x%02x)", op);
  return std::string(GetOpcodeInfo(op).name) + hex;
}

// Each opcode runs once after PUSH1 0 operands (JUMP gets its JUMPDEST),
// then the frame stops. With zero operands nothing depends on runtime
// values except for the opcodes listed below, so the charge is the pushes
// plus the table's static gas, in both loops. That covers every opcode
// without dynamic_gas and pins the fixed part of the dynamic ones the
// analyzer adds its worst case to.
TEST(OpcodeTableTest, StaticGasMatchesBothInterpreterLoops) {
  // Zero operands still leave a runtime-dependent charge: memory growth,
  // the SSTORE tier, forwarded call or create gas, or all gas (INVALID).
  const std::set<uint8_t> kAlwaysDynamic = {
      0x51, 0x52, 0x53,                    // MLOAD MSTORE MSTORE8
      0x55,                                // SSTORE
      0xf0, 0xf1, 0xf2, 0xf4, 0xf5, 0xfa,  // CREATE, calls, CREATE2
      0xfe,                                // INVALID
  };
  int checked = 0;
  for (int byte = 0; byte < 256; ++byte) {
    const uint8_t op = static_cast<uint8_t>(byte);
    const OpcodeInfo& info = GetOpcodeInfo(op);
    if (!info.defined || kAlwaysDynamic.count(op) != 0) continue;
    Bytes code;
    uint64_t expected = info.static_gas;
    if (op == static_cast<uint8_t>(Opcode::JUMP)) {
      code = {kPush1, 0x03, op, 0x5b, 0x00};
      expected += GetOpcodeInfo(kPush1).static_gas +
                  GetOpcodeInfo(0x5b).static_gas;
    } else {
      for (int i = 0; i < info.stack_in; ++i) {
        code.insert(code.end(), {kPush1, 0x00});
        expected += GetOpcodeInfo(kPush1).static_gas;
      }
      code.push_back(op);
      code.insert(code.end(), info.immediate_size, 0x00);
      code.push_back(0x00);
    }
    const Outcome want = op == static_cast<uint8_t>(Opcode::REVERT)
                             ? Outcome::kRevert
                             : Outcome::kSuccess;
    for (DispatchMode mode : {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
      SCOPED_TRACE(mode == DispatchMode::kSwitch ? "switch" : "threaded");
      auto [used, outcome] = RunOnce(mode, code);
      EXPECT_EQ(outcome, want) << Name(op);
      EXPECT_EQ(used, expected) << Name(op);
    }
    ++checked;
  }
  // 139 defined opcodes, 11 of them always dynamic.
  EXPECT_EQ(checked, 128);
  for (uint8_t op : kAlwaysDynamic) {
    EXPECT_TRUE(GetOpcodeInfo(op).dynamic_gas) << Name(op);
  }
}

// The threaded decoder flushes a hoisted segment at exactly these opcodes
// (dynamic_gas and not a terminator) and emits a CHARGE cell after each.
TEST(OpcodeTableTest, CheckpointsAreTheDynamicNonTerminators) {
  const std::set<uint8_t> kCheckpoints = {
      0x0a,                                // EXP
      0x20,                                // SHA3
      0x37, 0x39, 0x3c, 0x3e,              // the four copies
      0x51, 0x52, 0x53,                    // MLOAD MSTORE MSTORE8
      0x55,                                // SSTORE
      0x5a,                                // GAS
      0xa0, 0xa1, 0xa2, 0xa3, 0xa4,        // LOG0..LOG4
      0xf0, 0xf1, 0xf2, 0xf4, 0xf5, 0xfa,  // CREATE, calls, CREATE2
  };
  ASSERT_EQ(kCheckpoints.size(), 22u);
  // Dynamic terminators halt the frame themselves and get no CHARGE cell.
  const std::set<uint8_t> kDynamicTerminators = {0xf3, 0xfd, 0xfe, 0xff};
  std::set<uint8_t> checkpoints;
  std::set<uint8_t> dynamic_terminators;
  for (int byte = 0; byte < 256; ++byte) {
    const uint8_t op = static_cast<uint8_t>(byte);
    const OpcodeInfo& info = GetOpcodeInfo(op);
    if (!info.defined || !info.dynamic_gas) continue;
    (info.terminator ? dynamic_terminators : checkpoints).insert(op);
  }
  EXPECT_EQ(checkpoints, kCheckpoints);
  EXPECT_EQ(dynamic_terminators, kDynamicTerminators);
}

TEST(OpcodeTableTest, UndefinedBytesStayUndefined) {
  std::set<uint8_t> defined;
  for (int op = 0x00; op <= 0x0b; ++op) defined.insert(op);
  for (int op = 0x10; op <= 0x1d; ++op) defined.insert(op);
  defined.insert(0x20);
  for (int op = 0x30; op <= 0x3e; ++op) defined.insert(op);
  for (int op = 0x40; op <= 0x45; ++op) defined.insert(op);
  for (int op = 0x50; op <= 0x5b; ++op) defined.insert(op);
  for (int op = 0x60; op <= 0xa4; ++op) defined.insert(op);  // PUSH..LOG
  for (int op = 0xf0; op <= 0xf5; ++op) defined.insert(op);
  defined.insert({0xfa, 0xfd, 0xfe, 0xff});
  ASSERT_EQ(defined.size(), 139u);
  for (int byte = 0; byte < 256; ++byte) {
    const uint8_t op = static_cast<uint8_t>(byte);
    const OpcodeInfo& info = GetOpcodeInfo(op);
    EXPECT_EQ(info.defined, defined.count(op) != 0) << Name(op);
    if (info.defined) continue;
    EXPECT_FALSE(info.dynamic_gas) << Name(op);
    EXPECT_EQ(info.static_gas, 0u) << Name(op);
  }
}

// IsFusableBinop is derived from the table; the decoder's PUSH+binop
// fusion, the dataflow pass and the taint pass all rely on its set.
TEST(OpcodeTableTest, FusableBinopsAreTheTwentyPureBinaryOps) {
  const std::set<uint8_t> kBinops = {
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x0b,  // ADD..SMOD SIGNEXTEND
      0x10, 0x11, 0x12, 0x13, 0x14,                    // LT GT SLT SGT EQ
      0x16, 0x17, 0x18,                                // AND OR XOR
      0x1a, 0x1b, 0x1c, 0x1d,                          // BYTE SHL SHR SAR
  };
  ASSERT_EQ(kBinops.size(), 20u);
  std::set<uint8_t> fusable;
  for (int op = 0; op < 256; ++op) {
    if (IsFusableBinop(static_cast<uint8_t>(op))) {
      fusable.insert(static_cast<uint8_t>(op));
    }
  }
  EXPECT_EQ(fusable, kBinops);
}

}  // namespace
}  // namespace onoff::evm
