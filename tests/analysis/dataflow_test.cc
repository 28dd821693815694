// The storage-access / privacy-taint dataflow engine (DESIGN §12): the
// value-set domain, per-selector access summaries, the taint lattice and
// its ANA13–ANA18 diagnostics, the analyzer's own decode (it must leave the
// interpreter's code-analysis cache alone), and the taint-leak regression
// corpus — each entry rejected by the pre-signing audit with its expected
// diagnostic code.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/access_summary.h"
#include "analysis/analyzer.h"
#include "analysis/cfg.h"
#include "analysis/taint.h"
#include "contracts/betting.h"
#include "easm/assembler.h"
#include "evm/analysis_cache.h"
#include "evm/opcodes.h"
#include "onoff/signed_copy.h"

namespace onoff::analysis {
namespace {

Bytes Asm(const std::string& src) {
  auto code = easm::Assemble(src);
  EXPECT_TRUE(code.ok()) << code.status().ToString();
  return code.ok() ? *code : Bytes{};
}

// A one-function selector dispatcher in the exact shape our codegen emits.
Bytes Dispatcher(const std::string& body) {
  return Asm(
      "PUSH1 0x00 CALLDATALOAD PUSH1 0xe0 SHR\n"
      "DUP1 PUSH4 0xaabbccdd EQ PUSH @f JUMPI\n"
      "PUSH1 0x00 PUSH1 0x00 REVERT\n"
      "f:\nPOP\n" +
      body + "\nSTOP\n");
}

bool HasCode(const AnalysisReport& report, DiagCode code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

// ---- ValueSet ------------------------------------------------------------

TEST(ValueSetTest, JoinWidensPastMaxValues) {
  ValueSet v = ValueSet::Of(U256(1));
  for (uint64_t i = 2; i <= ValueSet::kMaxValues; ++i) {
    v.Join(ValueSet::Of(U256(i)));
  }
  EXPECT_FALSE(v.top);
  EXPECT_EQ(v.values.size(), ValueSet::kMaxValues);
  v.Join(ValueSet::Of(U256(99)));
  EXPECT_TRUE(v.top);
  EXPECT_TRUE(v.values.empty());
}

TEST(ValueSetTest, JoinDeduplicatesAndSorts) {
  ValueSet v = ValueSet::Of(U256(7));
  v.Join(ValueSet::Of(U256(3)));
  v.Join(ValueSet::Of(U256(7)));
  ASSERT_EQ(v.values.size(), 2u);
  EXPECT_EQ(v.values[0], U256(3));
  EXPECT_EQ(v.values[1], U256(7));
}

TEST(ValueSetTest, EvalBinaryFoldsLikeTheInterpreter) {
  // ADD binds `a` to the first-popped operand; for ADD the order is
  // irrelevant, for SUB it is the whole point: SUB computes a - b.
  ValueSet sum = EvalBinary(static_cast<uint8_t>(evm::Opcode::ADD),
                            ValueSet::Of(U256(2)), ValueSet::Of(U256(40)));
  ASSERT_TRUE(sum.IsConstant());
  EXPECT_EQ(sum.Constant(), U256(42));

  ValueSet diff = EvalBinary(static_cast<uint8_t>(evm::Opcode::SUB),
                             ValueSet::Of(U256(50)), ValueSet::Of(U256(8)));
  ASSERT_TRUE(diff.IsConstant());
  EXPECT_EQ(diff.Constant(), U256(42));
}

TEST(ValueSetTest, EvalBinaryCartesianProductAndTop) {
  ValueSet a = ValueSet::Of(U256(1));
  a.Join(ValueSet::Of(U256(2)));
  ValueSet b = ValueSet::Of(U256(10));
  b.Join(ValueSet::Of(U256(20)));
  ValueSet sum = EvalBinary(static_cast<uint8_t>(evm::Opcode::ADD), a, b);
  ASSERT_FALSE(sum.top);
  EXPECT_EQ(sum.values, (std::vector<U256>{U256(11), U256(12), U256(21),
                                           U256(22)}));
  // One ⊤ operand poisons the result.
  EXPECT_TRUE(
      EvalBinary(static_cast<uint8_t>(evm::Opcode::ADD), a, ValueSet::Top())
          .top);
}

TEST(ValueSetTest, EvalUnaryIszero) {
  ValueSet v = ValueSet::Of(U256(0));
  v.Join(ValueSet::Of(U256(5)));
  ValueSet r = EvalUnary(static_cast<uint8_t>(evm::Opcode::ISZERO), v);
  ASSERT_FALSE(r.top);
  EXPECT_EQ(r.values, (std::vector<U256>{U256(0), U256(1)}));
}

// ---- Taint lattice -------------------------------------------------------

TEST(TaintTest, ChainAndEscalation) {
  EXPECT_EQ(JoinTaint(Taint::kClean, Taint::kPrivate), Taint::kPrivate);
  EXPECT_EQ(JoinTaint(Taint::kSelectorWord, Taint::kClean),
            Taint::kSelectorWord);
  EXPECT_EQ(Escalate(Taint::kSelectorWord), Taint::kPrivate);
  EXPECT_EQ(Escalate(Taint::kClean), Taint::kClean);
}

TEST(TaintTest, SlotTaintedCoversTopKeys) {
  TaintEnv env;
  env.storage.insert(U256(7));
  EXPECT_TRUE(env.SlotTainted(ValueSet::Of(U256(7))));
  EXPECT_FALSE(env.SlotTainted(ValueSet::Of(U256(8))));
  // A ⊤ key may alias any tainted slot.
  EXPECT_TRUE(env.SlotTainted(ValueSet::Top()));
  env.storage.clear();
  EXPECT_FALSE(env.SlotTainted(ValueSet::Top()));
  env.storage_any = true;
  EXPECT_TRUE(env.SlotTainted(ValueSet::Of(U256(1))));
}

// ---- Access summaries ----------------------------------------------------

TEST(AccessSummaryTest, ConstantKeysYieldExactSlotSets) {
  AnalysisReport report = AnalyzeProgram(Dispatcher(
      "PUSH1 0x64 SLOAD PUSH1 0x01 ADD PUSH1 0x65 SSTORE"));
  ASSERT_FALSE(report.HasErrors()) << report.FirstError();
  ASSERT_EQ(report.functions.size(), 1u);
  const AccessSummary& access = report.functions[0].access;
  EXPECT_FALSE(access.reads.top);
  EXPECT_FALSE(access.writes.top);
  EXPECT_EQ(access.reads.slots, std::set<U256>{U256(0x64)});
  EXPECT_EQ(access.writes.slots, std::set<U256>{U256(0x65)});
  EXPECT_TRUE(access.StaticallySchedulable());
  // The program-wide summary covers the selector too.
  EXPECT_TRUE(report.program_access.reads.slots.count(U256(0x64)) > 0);
}

TEST(AccessSummaryTest, ValueSetTracksKeysThroughArithmetic) {
  // Key = 0x60 + 0x04: constant-propagated through ADD.
  AnalysisReport report =
      AnalyzeProgram(Dispatcher("PUSH1 0x2a PUSH1 0x04 PUSH1 0x60 ADD SSTORE"));
  ASSERT_FALSE(report.HasErrors()) << report.FirstError();
  ASSERT_EQ(report.functions.size(), 1u);
  EXPECT_EQ(report.functions[0].access.writes.slots,
            std::set<U256>{U256(0x64)});
}

TEST(AccessSummaryTest, CalldataKeyIsTopAndNotSchedulable) {
  AnalysisReport report = AnalyzeProgram(
      Dispatcher("PUSH1 0x2a PUSH1 0x04 CALLDATALOAD SSTORE"));
  ASSERT_FALSE(report.HasErrors()) << report.FirstError();
  ASSERT_EQ(report.functions.size(), 1u);
  EXPECT_TRUE(report.functions[0].access.writes.top);
  EXPECT_FALSE(report.functions[0].access.StaticallySchedulable());
}

TEST(AccessSummaryTest, CallsAndExternalReadsBlockScheduling) {
  AnalysisReport call_report = AnalyzeProgram(Dispatcher(
      "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 "
      "PUSH1 0x42 PUSH1 0x00 CALL POP"));
  ASSERT_EQ(call_report.functions.size(), 1u);
  EXPECT_FALSE(call_report.functions[0].access.StaticallySchedulable());

  AnalysisReport bal_report =
      AnalyzeProgram(Dispatcher("PUSH1 0x42 BALANCE POP"));
  ASSERT_EQ(bal_report.functions.size(), 1u);
  EXPECT_TRUE(bal_report.functions[0].access.external_reads);
  EXPECT_FALSE(bal_report.functions[0].access.StaticallySchedulable());
}

TEST(AccessSummaryTest, UnresolvedKeyWarnsForPolicyFunctions) {
  AnalysisOptions options;
  options.light_selectors.push_back(0xaabbccdd);
  AnalysisReport report = AnalyzeProgram(
      Dispatcher("PUSH1 0x2a PUSH1 0x04 CALLDATALOAD SSTORE"), options);
  // ANA13 is a warning: the function still lints clean overall.
  EXPECT_FALSE(report.HasErrors()) << report.FirstError();
  EXPECT_TRUE(HasCode(report, DiagCode::kUnresolvedStorageKey));
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == DiagCode::kUnresolvedStorageKey) {
      EXPECT_EQ(d.selector, int64_t{0xaabbccdd});
    }
  }
}

TEST(AccessSummaryTest, CacheReturnsSameSummaryObject) {
  Bytes code = Dispatcher("PUSH1 0x2a PUSH1 0x64 SSTORE");
  Hash32 hash = Keccak256(code);
  auto first = AccessSummaryCache::Global().Get(hash, code);
  auto second = AccessSummaryCache::Global().Get(hash, code);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  ASSERT_EQ(first->selectors.size(), 1u);
  EXPECT_NE(first->ForSelector(0xaabbccdd), nullptr);
  EXPECT_EQ(first->ForSelector(0x11111111), nullptr);
}

// ---- The analyzer decodes bytes, not the interpreter's cache -------------

TEST(AnalyzerDecodeTest, LeavesTheInterpreterCacheAlone) {
  contracts::BettingConfig betting;
  betting.alice = Address::FromWord(U256(0xa11ce));
  betting.bob = Address::FromWord(U256(0xb0b));
  betting.deposit_amount = contracts::Ether(1);
  betting.t1 = 1100;
  betting.t2 = 1200;
  betting.t3 = 1300;
  contracts::OffchainConfig offchain;
  offchain.alice = betting.alice;
  offchain.bob = betting.bob;
  auto onchain_init = contracts::BuildOnChainInit(betting);
  auto offchain_init = contracts::BuildOffChainInit(offchain);
  ASSERT_TRUE(onchain_init.ok());
  ASSERT_TRUE(offchain_init.ok());

  const evm::CodeAnalysisCache& cache = evm::CodeAnalysisCache::Global();
  const size_t entries = cache.size();
  const size_t bytes = cache.bytes();
  DeploymentReport report = AnalyzeDeployment(*onchain_init);
  EXPECT_TRUE(report.recognized_deployer);
  EXPECT_FALSE(report.HasErrors());
  EXPECT_TRUE(AuditForSigning(*offchain_init).ok());
  EXPECT_EQ(cache.size(), entries);
  EXPECT_EQ(cache.bytes(), bytes);
}

// ---- Taint-leak regression corpus ----------------------------------------

struct LeakEntry {
  const char* name;
  std::string body;
  DiagCode expected;
};

// Every entry is a declared-private function leaking private calldata into
// a public sink; the audit must reject it with the exact ANA code.
std::vector<LeakEntry> LeakCorpus() {
  return {
      // Private argument word stored to the contract's public storage.
      {"private-to-sstore", "PUSH1 0x04 CALLDATALOAD PUSH1 0x64 SSTORE",
       DiagCode::kTaintedStore},
      // Private argument used as the *key*: the slot choice leaks it.
      {"private-as-store-key", "PUSH1 0x2a PUSH1 0x04 CALLDATALOAD SSTORE",
       DiagCode::kTaintedStore},
      // Private word emitted as a log topic.
      {"private-to-log-topic",
       "PUSH1 0x04 CALLDATALOAD PUSH1 0x00 PUSH1 0x00 LOG1",
       DiagCode::kTaintedLog},
      // Private word staged through memory, then logged as data.
      {"private-to-log-data",
       "PUSH1 0x04 CALLDATALOAD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 LOG0",
       DiagCode::kTaintedLog},
      // Private word forwarded as a CALL's value argument.
      {"private-to-call-value",
       "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 "
       "PUSH1 0x04 CALLDATALOAD PUSH1 0x42 PUSH2 0xffff CALL POP",
       DiagCode::kTaintedCall},
      // Private word in memory reaching CALL argument bytes.
      {"private-to-call-args",
       "PUSH1 0x04 CALLDATALOAD PUSH1 0x00 MSTORE "
       "PUSH1 0x00 PUSH1 0x00 PUSH1 0x20 PUSH1 0x00 PUSH1 0x00 "
       "PUSH1 0x42 PUSH2 0xffff CALL POP",
       DiagCode::kTaintedCall},
      // Private word returned verbatim.
      {"private-to-return",
       "PUSH1 0x04 CALLDATALOAD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 "
       "RETURN",
       DiagCode::kTaintedReturn},
      // Laundered through storage: written to a slot, read back, stored to
      // another slot — the env's tainted-slot set carries it across.
      {"private-laundered-through-storage",
       "PUSH1 0x04 CALLDATALOAD PUSH1 0x70 SSTORE "
       "PUSH1 0x70 SLOAD PUSH1 0x71 SSTORE",
       DiagCode::kTaintedStore},
      // Laundered through memory and SHA3.
      {"private-through-sha3",
       "PUSH1 0x04 CALLDATALOAD PUSH1 0x00 MSTORE "
       "PUSH1 0x20 PUSH1 0x00 SHA3 PUSH1 0x64 SSTORE",
       DiagCode::kTaintedStore},
  };
}

AnalysisOptions PrivateOptions() {
  AnalysisOptions options;
  options.private_selectors.push_back(0xaabbccdd);
  options.function_names[0xaabbccdd] = "secretFn()";
  return options;
}

TEST(TaintCorpusTest, EveryLeakRejectedWithExpectedCode) {
  for (const LeakEntry& entry : LeakCorpus()) {
    SCOPED_TRACE(entry.name);
    AnalysisReport report =
        AnalyzeProgram(Dispatcher(entry.body), PrivateOptions());
    EXPECT_TRUE(report.HasErrors());
    EXPECT_TRUE(HasCode(report, entry.expected))
        << "expected " << DiagCodeId(entry.expected) << ", first: "
        << report.FirstError();
    // The taint sink is the *first* error — the most actionable finding a
    // rejection reports — and it is attributed to the private selector.
    for (const Diagnostic& d : report.diagnostics) {
      if (!IsError(d.code)) continue;
      EXPECT_EQ(d.code, entry.expected) << FormatDiagnostic(d);
      EXPECT_EQ(d.selector, int64_t{0xaabbccdd});
      break;
    }
  }
}

TEST(TaintCorpusTest, SignedCopyRefusesEveryLeak) {
  auto key = secp256k1::PrivateKey::FromSeed("taint-corpus-signer");
  for (const LeakEntry& entry : LeakCorpus()) {
    SCOPED_TRACE(entry.name);
    core::SignedCopy copy(Dispatcher(entry.body));
    copy.set_audit_options(PrivateOptions());
    Status status = copy.AddSignature(key);
    EXPECT_EQ(status.code(), StatusCode::kAnalysisRejected)
        << status.ToString();
    EXPECT_EQ(copy.signature_count(), 0u);
    EXPECT_NE(status.message().find(DiagCodeId(entry.expected)),
              std::string::npos)
        << status.ToString();
  }
}

TEST(TaintCorpusTest, ImplicitFlowWarnsWithoutRejectingOnItsOwn) {
  // A branch on private data guarding a clean-operand SSTORE: the explicit
  // taint rules see clean operands, but the store's *execution* correlates
  // with the secret. ANA18 flags it as a warning; the store itself is still
  // an ANA12 state-effect error for a private function.
  AnalysisReport report = AnalyzeProgram(
      Dispatcher("PUSH1 0x04 CALLDATALOAD PUSH @t JUMPI PUSH1 0x01 PUSH1 0x64 "
                 "SSTORE t: JUMPDEST"),
      PrivateOptions());
  EXPECT_TRUE(HasCode(report, DiagCode::kTaintedBranchEffect));
  EXPECT_FALSE(IsError(DiagCode::kTaintedBranchEffect));
  EXPECT_TRUE(HasCode(report, DiagCode::kPrivateStateLeak));
}

TEST(TaintCorpusTest, SelectorDispatchStaysClean) {
  // The dispatch idiom itself — CALLDATALOAD(0), SHR 224, EQ-cascade — must
  // not be flagged: the selector bytes are public by construction. A
  // private function with no sinks lints clean.
  AnalysisReport report = AnalyzeProgram(
      Dispatcher("PUSH1 0x64 SLOAD PUSH1 0x01 ADD POP"), PrivateOptions());
  EXPECT_FALSE(report.HasErrors()) << report.FirstError();
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_NE(d.code, DiagCode::kTaintedStore);
    EXPECT_NE(d.code, DiagCode::kTaintedReturn);
  }
}

}  // namespace
}  // namespace onoff::analysis
