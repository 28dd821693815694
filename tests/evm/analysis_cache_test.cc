// Unit tests for the code-analysis cache: decode structure (blocks, hoisted
// gas, stack deltas, jump resolution), superinstruction fusion, one entry
// per code hash, the byte budget and its oldest-first eviction, and —
// the TSan target — many threads concurrently resolving and executing the
// same contract through the shared cache while other codes evict entries.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "crypto/keccak.h"
#include "evm/analysis_cache.h"
#include "evm/evm.h"
#include "evm/gas.h"
#include "evm/opcodes.h"
#include "state/world_state.h"

namespace onoff::evm {
namespace {

Hash32 CodeHash(const Bytes& code) { return Keccak256(code); }

// A distinct code per `tag` whose analysis is large: STOP, then `jumpdests`
// JUMPDESTs (one basic block each), then PUSH4 tag. Executing it stops at
// once.
Bytes BigCode(uint32_t tag, size_t jumpdests = 24'000) {
  Bytes code{0x00};
  code.insert(code.end(), jumpdests, 0x5b);
  code.push_back(0x63);  // PUSH4
  for (int shift = 24; shift >= 0; shift -= 8) {
    code.push_back(static_cast<uint8_t>(tag >> shift));
  }
  return code;
}

std::shared_ptr<const CodeAnalysis> Resolve(const Bytes& code) {
  return CodeAnalysisCache::Global().Get(CodeHash(code), code);
}

const CodeCell* FindCell(const CodeAnalysis& an, Handler h) {
  for (const CodeCell& c : an.cells) {
    if (c.op == static_cast<uint8_t>(h)) return &c;
  }
  return nullptr;
}

size_t CountCells(const CodeAnalysis& an, Handler h) {
  size_t n = 0;
  for (const CodeCell& c : an.cells) {
    if (c.op == static_cast<uint8_t>(h)) ++n;
  }
  return n;
}

TEST(AnalysisTest, JumpdestBitmapSkipsPushImmediates) {
  // PUSH2 0x5b5b JUMPDEST — only the real JUMPDEST is valid.
  Bytes code{0x61, 0x5b, 0x5b, 0x5b};
  auto jd = AnalyzeJumpdests(code);
  ASSERT_EQ(jd.size(), 4u);
  EXPECT_FALSE(jd[1]);
  EXPECT_FALSE(jd[2]);
  EXPECT_TRUE(jd[3]);
}

TEST(AnalysisTest, SingleBlockStaticGasIsHoisted) {
  // PUSH1 1 DUP1 ADD POP STOP: all static costs fold into one BEGIN_BLOCK
  // charge. Nothing here is fusable, so each op gets a cell.
  Bytes code{0x60, 0x01, 0x80, 0x01, 0x50, 0x00};
  CodeAnalysis an = Analyze(code);
  ASSERT_FALSE(an.blocks.empty());
  EXPECT_EQ(an.blocks[0].base_gas,
            gas::kVeryLow * 3 + gas::kBase);  // PUSH + DUP + ADD + POP
  EXPECT_EQ(an.blocks[0].stack_req, 0);
  // Peak height: the pushed value and its copy live at once.
  EXPECT_EQ(an.blocks[0].stack_max, 2);
  // Cells: BEGIN_BLOCK PUSH DUP ADD POP STOP (+ trailing IMPLICIT_STOP).
  ASSERT_EQ(an.cells.size(), 7u);
  EXPECT_EQ(an.cells[0].op, static_cast<uint8_t>(Handler::BEGIN_BLOCK));
  EXPECT_EQ(an.cells.back().op, static_cast<uint8_t>(Handler::IMPLICIT_STOP));
}

TEST(AnalysisTest, CheckpointSplitsGasIntoChargeCells) {
  // PUSH1 0 MLOAD POP STOP: MLOAD is a checkpoint, so only the PUSH's cost
  // is hoisted into the block and the tail (POP) lands in a CHARGE cell.
  Bytes code{0x60, 0x00, 0x51, 0x50, 0x00};
  CodeAnalysis an = Analyze(code);
  ASSERT_FALSE(an.blocks.empty());
  EXPECT_EQ(an.blocks[0].base_gas, gas::kVeryLow);  // PUSH only
  const CodeCell* charge = FindCell(an, Handler::CHARGE);
  ASSERT_NE(charge, nullptr);
  EXPECT_EQ(charge->imm, gas::kBase);  // the POP after the checkpoint
}

TEST(AnalysisTest, JumpTargetsResolveToBlockCells) {
  // A JUMP whose target is computed (not a fusable PUSH+JUMP):
  // 0:PUSH1 5  2:DUP1  3:JUMP  4:INVALID  5:JUMPDEST  6:STOP
  Bytes code{0x60, 0x05, 0x80, 0x56, 0xfe, 0x5b, 0x00};
  CodeAnalysis an = Analyze(code);
  EXPECT_EQ(CountCells(an, Handler::JUMP), 1u);
  ASSERT_EQ(an.jump_cell.size(), code.size());
  ASSERT_GE(an.jump_cell[5], 0);
  const CodeCell& target = an.cells[an.jump_cell[5]];
  EXPECT_EQ(target.op, static_cast<uint8_t>(Handler::BEGIN_BLOCK));
  EXPECT_LT(an.jump_cell[1], 0);  // inside a PUSH immediate
  EXPECT_LT(an.jump_cell[6], 0);  // STOP is no jumpdest
}

TEST(AnalysisTest, FusionProducesSuperinstructions) {
  // PUSH+JUMP / PUSH+JUMPI / DUP+MLOAD / PUSH+binop / PUSH+PUSH+binop.
  {
    Bytes code{0x60, 0x03, 0x56, 0x5b, 0x00};  // PUSH1 3 JUMP JUMPDEST STOP
    CodeAnalysis an = Analyze(code);
    EXPECT_EQ(CountCells(an, Handler::PUSH_JUMP), 1u);
    EXPECT_EQ(CountCells(an, Handler::JUMP), 0u);
    const CodeCell* pj = FindCell(an, Handler::PUSH_JUMP);
    ASSERT_NE(pj, nullptr);
    EXPECT_EQ(static_cast<int32_t>(pj->imm), an.jump_cell[3]);
  }
  {
    Bytes code{0x60, 0x07, 0x56, 0x00};  // invalid constant target
    CodeAnalysis an = Analyze(code);
    EXPECT_EQ(CountCells(an, Handler::PUSH_JUMP_BAD), 1u);
  }
  {
    // DUP1 MLOAD (preceded by a push so the block is well-formed)
    Bytes code{0x60, 0x00, 0x80, 0x51, 0x00};
    CodeAnalysis an = Analyze(code);
    EXPECT_EQ(CountCells(an, Handler::DUP_MLOAD), 1u);
    EXPECT_EQ(CountCells(an, Handler::MLOAD), 0u);
  }
  {
    // PUSH1 2 PUSH1 3 ADD → constant-folded to a single PUSH of 5.
    Bytes code{0x60, 0x02, 0x60, 0x03, 0x01, 0x00};
    CodeAnalysis an = Analyze(code);
    EXPECT_EQ(CountCells(an, Handler::PUSH), 1u);
    EXPECT_EQ(CountCells(an, Handler::PUSH_BINOP), 0u);
    const CodeCell* push = FindCell(an, Handler::PUSH);
    ASSERT_NE(push, nullptr);
    // EvalBinop(ADD, second push, first push) = 3 + 2.
    EXPECT_EQ(an.pool[push->imm], U256(5));
  }
  {
    // CALLDATASIZE PUSH1 1 ADD → PUSH+binop (no second constant).
    Bytes code{0x36, 0x60, 0x01, 0x01, 0x00};
    CodeAnalysis an = Analyze(code);
    EXPECT_EQ(CountCells(an, Handler::PUSH_BINOP), 1u);
    const CodeCell* pb = FindCell(an, Handler::PUSH_BINOP);
    ASSERT_NE(pb, nullptr);
    EXPECT_EQ(pb->arg, static_cast<uint8_t>(Handler::ADD));
  }
}

TEST(AnalysisTest, UndefinedOpcodeKeepsCounterByte) {
  // 0x21 is undefined; its cell is INVALID but the ops list must keep the
  // original byte so batched metrics attribute it correctly.
  Bytes code{0x60, 0x01, 0x21};
  CodeAnalysis an = Analyze(code);
  EXPECT_EQ(CountCells(an, Handler::INVALID), 1u);
  bool found = false;
  for (uint8_t b : an.ops) found |= (b == 0x21);
  EXPECT_TRUE(found);
}

TEST(AnalysisCacheTest, OneEntryPerCodeHash) {
  CodeAnalysisCache& cache = CodeAnalysisCache::Global();
  cache.Clear();
  Bytes code{0x60, 0x01, 0x60, 0x02, 0x01, 0x00};
  Hash32 h = CodeHash(code);

  auto a1 = cache.Get(h, code);
  auto a2 = cache.Get(h, code);
  EXPECT_EQ(a1.get(), a2.get());  // second call is a hit
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), RetainedBytes(*a1));

  Bytes other{0x60, 0x01, 0x00};
  EXPECT_NE(cache.Get(CodeHash(other), other).get(), a1.get());
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AnalysisCacheTest, RetainedBytesStayUnderTheBudget) {
  CodeAnalysisCache& cache = CodeAnalysisCache::Global();
  cache.Clear();
  size_t resolved = 0;
  size_t resolved_bytes = 0;
  for (uint32_t tag = 0; resolved_bytes <= 2 * CodeAnalysisCache::kBudgetBytes;
       ++tag) {
    auto an = Resolve(BigCode(tag));
    resolved_bytes += RetainedBytes(*an);
    ++resolved;
    ASSERT_LE(cache.bytes(), CodeAnalysisCache::kBudgetBytes) << "tag " << tag;
  }
  EXPECT_LT(cache.size(), resolved);
  // Eviction frees only what the newcomer needs; the cache stays useful.
  EXPECT_GT(cache.bytes(), CodeAnalysisCache::kBudgetBytes / 2);

  // An analysis larger than the whole budget is returned, not retained.
  Bytes huge = BigCode(0xffffffff, 400'000);
  size_t before = cache.size();
  auto an = Resolve(huge);
  ASSERT_GT(RetainedBytes(*an), CodeAnalysisCache::kBudgetBytes);
  EXPECT_EQ(an->jumpdests.size(), huge.size());
  EXPECT_EQ(cache.size(), before);
  EXPECT_NE(Resolve(huge).get(), an.get());  // misses again
  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(AnalysisCacheTest, OldestCodeMissesAgainAfterEviction) {
  CodeAnalysisCache& cache = CodeAnalysisCache::Global();
  cache.Clear();
  std::vector<Bytes> codes;
  std::vector<std::shared_ptr<const CodeAnalysis>> first;
  size_t resolved_bytes = 0;
  for (uint32_t tag = 0; resolved_bytes <= CodeAnalysisCache::kBudgetBytes;
       ++tag) {
    codes.push_back(BigCode(tag));
    first.push_back(Resolve(codes.back()));
    resolved_bytes += RetainedBytes(*first.back());
  }
  ASSERT_GE(codes.size(), 3u);
  // The newest code still hits...
  EXPECT_EQ(Resolve(codes.back()).get(), first.back().get());
  // ...while the oldest was evicted: it misses and is analyzed afresh, and
  // the copy its caller still holds is intact.
  auto again = Resolve(codes.front());
  EXPECT_NE(again.get(), first.front().get());
  EXPECT_EQ(again->cells.size(), first.front()->cells.size());
  EXPECT_EQ(again->jumpdests, first.front()->jumpdests);
  cache.Clear();
}

// A frame holds its analysis for as long as it runs: the caller below CALLs
// enough distinct large contracts that its own entry, the oldest, is
// evicted mid-frame, and it must still finish on the evicted analysis.
TEST(AnalysisCacheTest, EvictedAnalysisHeldByACallerStillExecutes) {
  CodeAnalysisCache& cache = CodeAnalysisCache::Global();
  cache.Clear();
  const size_t per_callee =
      RetainedBytes(Analyze(BigCode(0)));
  const size_t callees = CodeAnalysisCache::kBudgetBytes / per_callee + 2;

  state::WorldState world;
  Address sender = Address::FromWord(U256(0xaa));
  Address caller = Address::FromWord(U256(0xca11));
  world.CreateAccount(sender);
  world.AddBalance(sender, U256(1'000'000));
  // Per callee: CALL(gas, callee, 0, 0, 0, 0, 0), leaving its success flag
  // on the stack; then the flags are summed into slot 0.
  Bytes code;
  for (size_t i = 0; i < callees; ++i) {
    Address callee = Address::FromWord(U256(0x1000 + i));
    world.SetCode(callee, BigCode(static_cast<uint32_t>(i)));
    for (int arg = 0; arg < 5; ++arg) code.insert(code.end(), {0x60, 0x00});
    code.push_back(0x73);  // PUSH20 callee
    code.insert(code.end(), callee.bytes().begin(), callee.bytes().end());
    code.insert(code.end(), {0x5a, 0xf1});  // GAS CALL
  }
  code.insert(code.end(), callees - 1, 0x01);  // ADD the flags
  code.insert(code.end(), {0x60, 0x00, 0x55, 0x00});  // PUSH1 0 SSTORE STOP
  world.SetCode(caller, code);
  world.ClearJournal();

  // Resolved first, so it is the oldest entry; only the frame keeps it.
  std::weak_ptr<const CodeAnalysis> caller_entry = Resolve(code);
  Evm evm(&world, BlockContext{}, TxContext{sender, U256(1)});
  evm.set_dispatch_mode(DispatchMode::kThreaded);
  CallMessage msg;
  msg.caller = sender;
  msg.to = caller;
  msg.gas = 10'000'000;
  ExecResult res = evm.Call(msg);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(world.GetStorage(caller, U256(0)), U256(callees));
  EXPECT_TRUE(caller_entry.expired()) << "the caller's entry was not evicted";
  EXPECT_LE(cache.bytes(), CodeAnalysisCache::kBudgetBytes);
  cache.Clear();
}

// TSan target: concurrent Get() on the same hash from many threads while
// executing the contract through the threaded interpreter, as other
// resolutions push the cache past its budget and evict entries.
TEST(AnalysisCacheTest, ConcurrentResolutionAndExecution) {
  CodeAnalysisCache::Global().Clear();
  // The fusion-loop program from the differential test: jumps, fused
  // back-edges, memory traffic.
  Bytes code{0x60, 0x05, 0x60, 0x03, 0x01, 0x60, 0x00, 0x52, 0x60, 0x20,
             0x5b, 0x60, 0x01, 0x90, 0x03, 0x80, 0x60, 0x00, 0x51, 0x50,
             0x80, 0x51, 0x50, 0x80, 0x60, 0x0a, 0x57, 0x60, 0x1e, 0x56,
             0x5b, 0x00};
  const int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        state::WorldState world;
        Address contract = Address::FromWord(U256(0xc0de));
        Address sender = Address::FromWord(U256(0xaa));
        world.CreateAccount(sender);
        world.AddBalance(sender, U256(1'000'000));
        world.SetCode(contract, code);
        world.ClearJournal();
        Evm evm(&world, BlockContext{}, TxContext{sender, U256(1)});
        CallMessage msg;
        msg.caller = sender;
        msg.to = contract;
        msg.gas = 100'000;
        ExecResult res = evm.Call(msg);
        if (!res.ok()) ++failures[t];
        // Every fifth round also resolves a distinct large code: 40 of
        // them are several budgets' worth, so entries (the contract's own
        // included) are evicted while other threads execute.
        if (i % 5 == 0) {
          Bytes big = BigCode(static_cast<uint32_t>(t * 100 + i));
          if (Resolve(big)->jumpdests.size() != big.size()) ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  EXPECT_LE(CodeAnalysisCache::Global().bytes(), CodeAnalysisCache::kBudgetBytes);
  // The contract plus 40 large codes were resolved; fewer are retained.
  EXPECT_LT(CodeAnalysisCache::Global().size(), 41u);
  CodeAnalysisCache::Global().Clear();
}

}  // namespace
}  // namespace onoff::evm
