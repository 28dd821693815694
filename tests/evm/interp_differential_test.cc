// Differential fuzzing of the interpreter dispatch loops: every program —
// randomized byte soup, structured random programs, the static-analysis
// negative corpus, and checkpoint-heavy hand-written cases — must produce
// byte-identical results under the reference switch loop and the threaded
// loop over the fused decode: outcome, gas_left, return data, logs, refund,
// post-state root, and the per-opcode metrics counters.

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <iterator>
#include <random>
#include <vector>

#include "evm/analysis_cache.h"
#include "evm/evm.h"
#include "evm/interp.h"
#include "evm/opcodes.h"
#include "state/world_state.h"

namespace onoff::evm {
namespace {

constexpr uint64_t kContractWord = 0xc0de;
constexpr uint64_t kCalleeWord = 0xca11;
constexpr uint64_t kSenderWord = 0xaa;

// A small callee for CALL/STATICCALL/DELEGATECALL coverage: stores
// calldata[0..32] at slot 1 and returns 32 bytes of memory.
Bytes CalleeCode() {
  return Bytes{
      0x60, 0x00, 0x35,        // PUSH1 0 CALLDATALOAD
      0x60, 0x01, 0x55,        // PUSH1 1 SSTORE
      0x60, 0x2a, 0x60, 0x00,  // PUSH1 42 PUSH1 0
      0x52,                    // MSTORE
      0x60, 0x20, 0x60, 0x00,  // PUSH1 32 PUSH1 0
      0xf3,                    // RETURN
  };
}

struct Execution {
  ExecResult result;
  Hash32 root{};
  // Per-opcode counter deltas over the execution (zeros when metrics are
  // disabled, in which case the comparison is trivially true).
  std::array<uint64_t, 256> opcode_deltas{};
};

std::array<uint64_t, 256> SnapshotCounters() {
  std::array<uint64_t, 256> snap{};
  const std::array<obs::Counter*, 256>* table = OpcodeCounters();
  if (table != nullptr) {
    for (int i = 0; i < 256; ++i) snap[i] = (*table)[i]->Value();
  }
  return snap;
}

// Executes `code` with the given dispatch mode on a freshly built world.
Execution RunOnce(DispatchMode mode, const Bytes& code, const Bytes& calldata,
                  uint64_t gas) {
  state::WorldState world;
  Address contract = Address::FromWord(U256(kContractWord));
  Address callee = Address::FromWord(U256(kCalleeWord));
  Address sender = Address::FromWord(U256(kSenderWord));

  world.CreateAccount(sender);
  world.AddBalance(sender, U256(1'000'000'000));
  world.SetCode(contract, code);
  world.AddBalance(contract, U256(777));
  world.SetCode(callee, CalleeCode());
  // Pre-seed storage so SSTORE hits both the set and reset cost tiers.
  world.SetStorage(contract, U256(0), U256(99));
  world.SetStorage(contract, U256(2), U256(123456));
  world.ClearJournal();

  Evm evm(&world, BlockContext{}, TxContext{sender, U256(1)});
  evm.set_dispatch_mode(mode);

  CallMessage msg;
  msg.caller = sender;
  msg.to = contract;
  msg.value = U256(5);
  msg.data = calldata;
  msg.gas = gas;

  Execution exec;
  auto before = SnapshotCounters();
  exec.result = evm.Call(msg);
  auto after = SnapshotCounters();
  for (int i = 0; i < 256; ++i) exec.opcode_deltas[i] = after[i] - before[i];
  exec.root = world.StateRoot();
  return exec;
}

void ExpectIdentical(const Execution& ref, const Execution& got,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(ref.result.outcome, got.result.outcome)
      << OutcomeToString(ref.result.outcome) << " vs "
      << OutcomeToString(got.result.outcome);
  EXPECT_EQ(ref.result.gas_left, got.result.gas_left);
  EXPECT_EQ(ref.result.output, got.result.output);
  EXPECT_EQ(ref.result.refund, got.result.refund);
  ASSERT_EQ(ref.result.logs.size(), got.result.logs.size());
  for (size_t i = 0; i < ref.result.logs.size(); ++i) {
    EXPECT_EQ(ref.result.logs[i].address, got.result.logs[i].address);
    EXPECT_EQ(ref.result.logs[i].topics, got.result.logs[i].topics);
    EXPECT_EQ(ref.result.logs[i].data, got.result.logs[i].data);
  }
  EXPECT_EQ(ref.root, got.root);
  for (int op = 0; op < 256; ++op) {
    EXPECT_EQ(ref.opcode_deltas[op], got.opcode_deltas[op])
        << "opcode 0x" << std::hex << op << " ("
        << GetOpcodeInfo(static_cast<uint8_t>(op)).name << ")";
  }
}

// Returns the reference (switch-loop) execution.
Execution CheckAllModes(const Bytes& code, const Bytes& calldata,
                        uint64_t gas, const std::string& label) {
  Execution ref = RunOnce(DispatchMode::kSwitch, code, calldata, gas);
  Execution got = RunOnce(DispatchMode::kThreaded, code, calldata, gas);
  ExpectIdentical(ref, got, label);
  return ref;
}

// ---------------------------------------------------------------------------
// Randomized programs
// ---------------------------------------------------------------------------

TEST(InterpDifferentialTest, PureRandomBytecode) {
  std::mt19937_64 rng(0xD1FF);
  const uint64_t gas_levels[] = {30, 200, 5'000, 400'000};
  for (int trial = 0; trial < 300; ++trial) {
    size_t len = rng() % 160;
    Bytes code(len);
    for (auto& b : code) b = static_cast<uint8_t>(rng());
    uint64_t gas = gas_levels[trial % 4];
    CheckAllModes(code, Bytes{}, gas,
                  "pure-random trial=" + std::to_string(trial));
  }
}

TEST(InterpDifferentialTest, StructuredRandomPrograms) {
  std::mt19937_64 rng(0xBEEF);
  // A weighted pool of plausible opcodes (plus PUSH/DUP/SWAP/LOG families
  // emitted explicitly below). Invalid stack states and bad jumps are
  // intentionally reachable: halting behavior must match too.
  const uint8_t pool[] = {
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a,  // arith
      0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19,  // cmp/bit
      0x1a, 0x1b, 0x1c, 0x1d,                                      // shifts
      0x20,                                                        // SHA3
      0x30, 0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x38, 0x3a, 0x3d,  // env
      0x41, 0x42, 0x43, 0x44, 0x45,                                // block
      0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x58, 0x59, 0x5a,        // mem/sto
      0x56, 0x57, 0x5b,                                            // jumps
      0x00, 0xf3, 0xfd,                                            // halts
  };
  for (int trial = 0; trial < 200; ++trial) {
    Bytes code;
    std::vector<uint32_t> jumpdest_pcs;
    size_t target_len = 20 + rng() % 120;
    while (code.size() < target_len) {
      switch (rng() % 10) {
        case 0:
        case 1:
        case 2: {  // PUSHn with random immediate (may be truncated at end)
          int n = 1 + static_cast<int>(rng() % 8);
          code.push_back(static_cast<uint8_t>(0x5f + n));
          for (int i = 0; i < n; ++i) {
            // Mostly small bytes so pushed values act as offsets/counters.
            code.push_back(static_cast<uint8_t>(rng() % 64));
          }
          break;
        }
        case 3: {  // DUP / SWAP
          code.push_back(static_cast<uint8_t>(
              (rng() % 2 ? 0x80 : 0x90) + rng() % 4));
          break;
        }
        case 4: {  // LOGn
          code.push_back(static_cast<uint8_t>(0xa0 + rng() % 3));
          break;
        }
        case 5: {  // JUMPDEST marker, remembered as a fusion target
          jumpdest_pcs.push_back(static_cast<uint32_t>(code.size()));
          code.push_back(0x5b);
          break;
        }
        case 6: {  // PUSH2 <known jumpdest> JUMP/JUMPI — mostly valid jumps
          if (!jumpdest_pcs.empty()) {
            uint32_t dest = jumpdest_pcs[rng() % jumpdest_pcs.size()];
            code.push_back(0x61);  // PUSH2
            code.push_back(static_cast<uint8_t>(dest >> 8));
            code.push_back(static_cast<uint8_t>(dest & 0xff));
            code.push_back(rng() % 2 ? 0x56 : 0x57);
          }
          break;
        }
        default: {
          code.push_back(pool[rng() % sizeof(pool)]);
          break;
        }
      }
    }
    Bytes calldata(rng() % 40);
    for (auto& b : calldata) b = static_cast<uint8_t>(rng());
    // Modest gas keeps accidental loops bounded and exercises mid-block
    // out-of-gas in the bargain.
    uint64_t gas = 500 + rng() % 60'000;
    CheckAllModes(code, calldata, gas,
                  "structured trial=" + std::to_string(trial));
  }
}

// ---------------------------------------------------------------------------
// The static-analysis negative corpus (known-hostile control flow)
// ---------------------------------------------------------------------------

TEST(InterpDifferentialTest, AnalysisNegativeCorpus) {
  struct Program {
    const char* name;
    Bytes code;
  };
  const Program programs[] = {
      // PUSH1 4 JUMP — target is inside the PUSH immediate of 0x60 0x5b.
      {"jump-into-push", Bytes{0x60, 0x04, 0x56, 0x60, 0x5b, 0x00}},
      // PUSH1 1 ADD ADD STOP — second ADD underflows.
      {"stack-underflow", Bytes{0x60, 0x01, 0x01, 0x01, 0x00}},
      // PUSH20 cut off by end of code.
      {"truncated-push", Bytes{0x73, 0xde, 0xad}},
      // PUSH1 0 CALLDATALOAD JUMP STOP — data-dependent jump target.
      {"unresolved-jump", Bytes{0x60, 0x00, 0x35, 0x56, 0x00}},
      // JUMPDEST-only and empty programs.
      {"jumpdest-only", Bytes{0x5b, 0x5b, 0x5b}},
      {"empty", Bytes{}},
      // Trailing JUMPI: the fall-through exit of the last block.
      {"trailing-jumpi", Bytes{0x60, 0x00, 0x60, 0x00, 0x57}},
  };
  for (const Program& p : programs) {
    for (uint64_t gas : {0ull, 3ull, 10ull, 100'000ull}) {
      CheckAllModes(p.code, Bytes{0x00, 0x07}, gas,
                    std::string(p.name) + " gas=" + std::to_string(gas));
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint-heavy and fusion-heavy hand-written programs
// ---------------------------------------------------------------------------

TEST(InterpDifferentialTest, CheckpointOpsAndCalls) {
  // SSTORE a fresh slot (set tier), overwrite slot 0 (reset tier), clear
  // slot 2 (refund), SLOAD, LOG1, SHA3, then CALL the callee and RETURN its
  // answer — every dynamic-gas checkpoint in one program.
  Bytes code = {
      0x60, 0x07, 0x60, 0x05, 0x55,              // SSTORE slot5 = 7 (set)
      0x60, 0x01, 0x60, 0x00, 0x55,              // SSTORE slot0 = 1 (reset)
      0x60, 0x00, 0x60, 0x02, 0x55,              // SSTORE slot2 = 0 (refund)
      0x60, 0x00, 0x54, 0x50,                    // SLOAD slot0, POP
      0x60, 0x11, 0x60, 0x00, 0x52,              // MSTORE mem0 = 0x11
      0x60, 0x2a, 0x60, 0x20, 0x60, 0x00, 0xa1,  // LOG1 topic=42 mem[0..32)
      0x60, 0x20, 0x60, 0x00, 0x20, 0x50,        // SHA3 mem[0..32), POP
      0x58, 0x50, 0x5a, 0x50, 0x59, 0x50,        // PC GAS MSIZE (each POPped)
      // CALL(gas=50000, to=0xca11, value=1, in=0..32, out=0..32)
      0x60, 0x20, 0x60, 0x00, 0x60, 0x20, 0x60, 0x00,
      0x60, 0x01, 0x61, 0xca, 0x11, 0x61, 0xc3, 0x50, 0xf1,
      0x50,                                      // POP call status
      0x60, 0x20, 0x60, 0x00, 0xf3,              // RETURN mem[0..32)
  };
  for (uint64_t gas : {100ull, 5'000ull, 21'000ull, 60'000ull, 500'000ull}) {
    CheckAllModes(code, Bytes{}, gas, "checkpoints gas=" + std::to_string(gas));
  }
}

TEST(InterpDifferentialTest, FusionPatternsAndLoop) {
  // A counting loop built from exactly the fusable shapes: PUSH+PUSH+binop
  // (folded), PUSH+binop, DUP+MLOAD, PUSH+JUMPI back-edge, PUSH+JUMP.
  Bytes code = {
      0x60, 0x05, 0x60, 0x03, 0x01,  // PUSH 5 PUSH 3 ADD  (constant-folded)
      0x60, 0x00, 0x52,              // MSTORE mem0 = 8
      0x60, 0x20,                    // PUSH 32 = loop counter
      0x5b,                          // JUMPDEST (pc 10)
      0x60, 0x01, 0x90, 0x03,       // PUSH1 1 SWAP1 SUB  (counter -= 1)
      0x80,                          // DUP1
      0x60, 0x00, 0x51, 0x50,        // PUSH1 0 MLOAD POP (DUP-free MLOAD)
      0x80, 0x51, 0x50,              // DUP1 MLOAD POP    (DUP+MLOAD fusion)
      0x80,                          // DUP1
      0x60, 0x0a, 0x57,              // PUSH1 10 JUMPI    (PUSH+JUMPI fusion)
      0x60, 0x1e, 0x56,              // PUSH1 30 JUMP     (PUSH+JUMP fusion)
      0x5b,                          // JUMPDEST (pc 30)
      0x00,                          // STOP
  };
  // Gas ladder crosses the loop's per-iteration cost so some runs die
  // mid-loop (CHARGE/BEGIN_BLOCK fallback paths) and some finish.
  for (uint64_t gas = 0; gas < 2'000; gas += 37) {
    CheckAllModes(code, Bytes{}, gas, "fusion-loop gas=" + std::to_string(gas));
  }
  CheckAllModes(code, Bytes{}, 1'000'000, "fusion-loop full");
}

TEST(InterpDifferentialTest, BadJumpFusionVariants) {
  // PUSH+JUMP to an invalid destination (always faults) and PUSH+JUMPI to
  // an invalid destination with both a taken and a non-taken condition
  // (faults only when taken).
  CheckAllModes(Bytes{0x60, 0x03, 0x56, 0x00}, Bytes{}, 100'000,
                "push-jump-bad");
  CheckAllModes(Bytes{0x60, 0x01, 0x60, 0x03, 0x57, 0x00}, Bytes{}, 100'000,
                "push-jumpi-bad-taken");
  CheckAllModes(Bytes{0x60, 0x00, 0x60, 0x03, 0x57, 0x00}, Bytes{}, 100'000,
                "push-jumpi-bad-skipped");
}

// Raw bytecode with labels, for programs whose jump targets are computed.
class LabelledCode {
 public:
  size_t NewLabel() {
    label_pc_.push_back(0);
    return label_pc_.size() - 1;
  }
  // Emits the JUMPDEST the label names.
  void Bind(size_t label) {
    label_pc_[label] = code_.size();
    code_.push_back(0x5b);
  }
  void Ops(std::initializer_list<uint8_t> ops) {
    code_.insert(code_.end(), ops);
  }
  // Pushes the label's pc computed from CALLVALUE (RunOnce sends 5), so
  // the JUMP or JUMPI after it is not fused with a PUSH:
  // `PUSH2 pc+5 CALLVALUE SWAP1 SUB` or `PUSH2 pc^5 CALLVALUE XOR`.
  void Target(size_t label, bool use_xor) {
    code_.push_back(0x61);  // PUSH2
    fixups_.push_back({code_.size(), label, use_xor});
    code_.insert(code_.end(), {0x00, 0x00, 0x34});  // imm, CALLVALUE
    if (use_xor) {
      code_.push_back(0x18);  // XOR
    } else {
      code_.insert(code_.end(), {0x90, 0x03});  // SWAP1 SUB
    }
  }
  Bytes Finish() {
    for (const Fixup& f : fixups_) {
      size_t pc = label_pc_[f.label];
      size_t imm = f.use_xor ? pc ^ 5 : pc + 5;
      code_[f.at] = static_cast<uint8_t>(imm >> 8);
      code_[f.at + 1] = static_cast<uint8_t>(imm);
    }
    return code_;
  }

 private:
  struct Fixup {
    size_t at;
    size_t label;
    bool use_xor;
  };
  Bytes code_;
  std::vector<size_t> label_pc_;
  std::vector<Fixup> fixups_;
};

size_t CountCells(const CodeAnalysis& an, Handler h) {
  size_t n = 0;
  for (const CodeCell& c : an.cells) n += c.op == static_cast<uint8_t>(h);
  return n;
}

// The handlers fusion absorbs in codegen output still run under the fused
// decode whenever the pattern is broken: JUMP and JUMPI on computed
// targets, DUPs not followed by MLOAD, binops after a non-PUSH. Each
// program is a counting loop built from those shapes that ends in doomed
// blocks (one needs more gas than low gas levels leave, the last more
// stack than the loop leaves), and the gas ladder dooms loop blocks too,
// so the threaded loop's replays on the switch loop are compared as well.
TEST(InterpDifferentialTest, PlainHandlersUnderTheFusedDecode) {
  std::mt19937_64 rng(0x9a1a);
  const uint64_t gas_levels[] = {0,     40,     120,   300,
                                 1'000, 3'000, 12'000, 1'000'000};
  int underflow_tails = 0;
  const int kTrials = 120;
  for (int trial = 0; trial < kTrials; ++trial) {
    LabelledCode b;
    size_t loop = b.NewLabel();
    size_t tail = b.NewLabel();
    // Stack [counter, acc], acc on top, at every loop-body snippet.
    b.Ops({0x60, static_cast<uint8_t>(1 + rng() % 6), 0x36});  // n, CDSIZE
    b.Bind(loop);
    for (int snippets = 1 + static_cast<int>(rng() % 6); snippets > 0;
         --snippets) {
      switch (rng() % 9) {
        case 0:
          b.Ops({0x80, 0x01});  // DUP1 ADD
          break;
        case 1:
          b.Ops({0x36, 0x02});  // CALLDATASIZE MUL
          break;
        case 2:
          b.Ops({0x81, 0x18});  // DUP2 XOR
          break;
        case 3:
          b.Ops({0x34, 0x90, 0x03});  // CALLVALUE SWAP1 SUB
          break;
        case 4:
          b.Ops({0x80, 0x60, 0x00, 0x52});  // DUP1 PUSH1 0 MSTORE
          break;
        case 5:
          b.Ops({0x60, 0x00, 0x51, 0x01});  // PUSH1 0 MLOAD ADD
          break;
        case 6:
          b.Ops({0x81, 0x81, 0x10, 0x50});  // DUP2 DUP2 LT POP
          break;
        case 7:
          b.Ops({0x5a, 0x50});  // GAS POP
          break;
        default: {
          // DUP1 <computed skip> JUMPI INVALID skip: — taken unless acc is 0.
          size_t skip = b.NewLabel();
          b.Ops({0x80});
          b.Target(skip, rng() % 2 == 0);
          b.Ops({0x57, 0xfe});
          b.Bind(skip);
          break;
        }
      }
    }
    b.Ops({0x90, 0x60, 0x01, 0x90, 0x03, 0x90});  // counter -= 1
    b.Ops({0x81});                                // DUP2
    b.Target(loop, rng() % 2 == 0);
    b.Ops({0x57});  // JUMPI back while the counter is nonzero
    b.Target(tail, rng() % 2 == 0);
    b.Ops({0x56, 0xfe, 0x00});  // JUMP over bytes no path reaches
    b.Bind(tail);
    // One block of 20 x (PUSH1 0 SLOAD POP): 4 101 gas due at its entry.
    for (int i = 0; i < 20; ++i) b.Ops({0x60, 0x00, 0x54, 0x50});
    b.Ops({0x5b, 0x50, 0x50, 0x50, 0x00});  // needs 3 slots, finds 2
    Bytes code = b.Finish();

    CodeAnalysis an = Analyze(code);
    ASSERT_GE(CountCells(an, Handler::JUMP), 1u);
    ASSERT_GE(CountCells(an, Handler::JUMPI), 1u);
    ASSERT_GE(CountCells(an, Handler::DUP), 1u);
    ASSERT_GE(CountCells(an, Handler::SUB), 1u);
    ASSERT_EQ(CountCells(an, Handler::PUSH_JUMP) +
                  CountCells(an, Handler::PUSH_JUMPI) +
                  CountCells(an, Handler::PUSH_JUMP_BAD) +
                  CountCells(an, Handler::PUSH_JUMPI_BAD),
              0u);

    Bytes calldata(1 + rng() % 40);
    for (auto& byte : calldata) byte = static_cast<uint8_t>(rng());
    for (uint64_t gas : gas_levels) {
      Execution ref = CheckAllModes(
          code, calldata, gas,
          "plain trial=" + std::to_string(trial) + " gas=" +
              std::to_string(gas));
      if (gas == gas_levels[std::size(gas_levels) - 1] &&
          ref.result.outcome == Outcome::kStackUnderflow) {
        ++underflow_tails;
      }
    }
  }
  // Most programs run their loop out and halt in the last doomed block.
  EXPECT_GT(underflow_tails, kTrials / 2);
}

TEST(InterpDifferentialTest, CreateAndSelfdestruct) {
  // CREATE with init code assembled in memory (init: PUSH1 0 PUSH1 0
  // RETURN → deploys empty code), then SELFDESTRUCT to the sender.
  Bytes code = {
      // MSTORE8 the 5-byte init code 0x600060 00f3 at mem[0..5)
      0x60, 0x60, 0x60, 0x00, 0x53,  // mem[0] = 0x60
      0x60, 0x00, 0x60, 0x01, 0x53,  // mem[1] = 0x00
      0x60, 0x60, 0x60, 0x02, 0x53,  // mem[2] = 0x60
      0x60, 0x00, 0x60, 0x03, 0x53,  // mem[3] = 0x00
      0x60, 0xf3, 0x60, 0x04, 0x53,  // mem[4] = 0xf3
      0x60, 0x05, 0x60, 0x00, 0x60, 0x02, 0xf0,  // CREATE value=2 mem[0..5)
      0x50,                                      // POP created address
      0x60, 0xaa, 0xff,                          // SELFDESTRUCT -> 0xaa
  };
  for (uint64_t gas : {1'000ull, 33'000ull, 500'000ull}) {
    CheckAllModes(code, Bytes{}, gas, "create gas=" + std::to_string(gas));
  }
}

TEST(InterpDifferentialTest, ReturndatacopyPastEnd) {
  // STATICCALL the callee then RETURNDATACOPY one byte past the returned
  // 32 bytes — the EIP-211 exceptional halt, inside a threaded checkpoint.
  Bytes code = {
      0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00,
      0x61, 0xca, 0x11, 0x61, 0xc3, 0x50, 0xfa, 0x50,  // STATICCALL, POP
      0x60, 0x21, 0x60, 0x00, 0x60, 0x00, 0x3e,        // RETURNDATACOPY 33b
      0x00,
  };
  CheckAllModes(code, Bytes{}, 200'000, "returndatacopy-past-end");
}

// The init-code path (override code, uncached analysis) must agree too:
// run a contract creation under both loops.
TEST(InterpDifferentialTest, CreateTransactionPath) {
  // Init code: SSTORE(0, 7), return runtime code {STOP}.
  Bytes init = {
      0x60, 0x07, 0x60, 0x00, 0x55,  // SSTORE
      0x60, 0x00, 0x60, 0x00, 0x53,  // MSTORE8 mem[0] = 0x00 (STOP)
      0x60, 0x01, 0x60, 0x00, 0xf3,  // RETURN mem[0..1)
  };
  Execution ref;
  bool first = true;
  for (DispatchMode mode : {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
    state::WorldState world;
    Address sender = Address::FromWord(U256(kSenderWord));
    world.CreateAccount(sender);
    world.AddBalance(sender, U256(1'000'000));
    world.ClearJournal();
    Evm evm(&world, BlockContext{}, TxContext{sender, U256(1)});
    evm.set_dispatch_mode(mode);
    Execution got;
    got.result = evm.Create(sender, U256(9), init, 200'000);
    got.root = world.StateRoot();
    if (first) {
      ref = got;
      first = false;
    } else {
      EXPECT_EQ(ref.result.outcome, got.result.outcome);
      EXPECT_EQ(ref.result.gas_left, got.result.gas_left);
      EXPECT_EQ(ref.result.created, got.result.created);
      EXPECT_EQ(ref.root, got.root);
    }
  }
}

}  // namespace
}  // namespace onoff::evm
