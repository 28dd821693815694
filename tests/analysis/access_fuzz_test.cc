// Differential fuzz for the static access analyzer (DESIGN §12): the
// dynamic AccessSet recorder is the soundness oracle. For randomized
// template programs we assert static summary ⊇ dynamic footprint, both
// directly at the EVM level (SpeculativeState overlay vs the analyzer's
// slot sets) and at the chain level (check_static_containment audits every
// known hint against the recorded overlay and must count zero violations).
// The betting-protocol drivers run every settlement path on a parallel
// chain with containment checking enabled.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/access_summary.h"
#include "chain/blockchain.h"
#include "easm/assembler.h"
#include "evm/evm.h"
#include "evm/opcodes.h"
#include "onoff/protocol.h"
#include "state/speculative_state.h"
#include "state/world_state.h"

namespace onoff {
namespace {

Address Addr(uint8_t tag) {
  std::array<uint8_t, 20> raw{};
  raw[19] = tag;
  return Address(raw);
}

Bytes Asm(const std::string& src) {
  auto code = easm::Assemble(src);
  EXPECT_TRUE(code.ok()) << code.status().ToString();
  return code.ok() ? *code : Bytes{};
}

std::string Hex2(unsigned v) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  s += digits[(v >> 4) & 0xf];
  s += digits[v & 0xf];
  return s;
}

std::string HexSelector(uint32_t sel) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 28; shift >= 0; shift -= 4) s += digits[(sel >> shift) & 0xf];
  return s;
}

// One random function body. Fragment kinds 0-3 have fully constant storage
// keys (statically schedulable); 4-6 inject ⊤ keys or external reads so the
// analyzer must fall back, exercising the unknown-hint path.
std::string RandomBody(std::mt19937& rng) {
  std::uniform_int_distribution<int> frag_count(1, 3);
  // Bias toward resolvable bodies: ⊤/external fragments at ~1/8 each.
  std::uniform_int_distribution<int> pick(0, 15);
  std::uniform_int_distribution<int> slot(0, 11);
  std::string body;
  int n = frag_count(rng);
  for (int i = 0; i < n; ++i) {
    int kind = pick(rng);
    unsigned k = static_cast<unsigned>(slot(rng));
    switch (kind) {
      case 12:
      case 13:  // calldata-keyed read: unresolvable key
        body += "PUSH1 0x04 CALLDATALOAD SLOAD POP\n";
        break;
      case 14:  // calldata-keyed write
        body += "PUSH1 0x2a PUSH1 0x04 CALLDATALOAD SSTORE\n";
        break;
      case 15:  // external state read
        body += "CALLER BALANCE POP\n";
        break;
      default:
        switch (kind % 4) {
          case 0:  // constant-key load
            body += "PUSH1 " + Hex2(k) + " SLOAD POP\n";
            break;
          case 1:  // constant-key store
            body += "PUSH1 " + Hex2(0x40 + k) + " PUSH1 " + Hex2(k) +
                    " SSTORE\n";
            break;
          case 2:  // read-modify-write of one slot
            body += "PUSH1 " + Hex2(k) + " SLOAD PUSH1 0x01 ADD PUSH1 " +
                    Hex2(k) + " SSTORE\n";
            break;
          default:  // key built by constant arithmetic
            body += "PUSH1 " + Hex2(k) + " PUSH1 0x20 ADD SLOAD POP\n";
            break;
        }
        break;
    }
  }
  return body;
}

struct RandomProgram {
  Bytes code;
  std::vector<uint32_t> selectors;
};

// A multi-function contract in the codegen dispatch shape, with randomized
// bodies behind each selector.
RandomProgram MakeRandomProgram(std::mt19937& rng) {
  std::uniform_int_distribution<int> fn_count(1, 3);
  std::uniform_int_distribution<uint32_t> sel(0x10000000u, 0xffffffffu);
  RandomProgram p;
  int n = fn_count(rng);
  std::string src = "PUSH1 0x00 CALLDATALOAD PUSH1 0xe0 SHR\n";
  for (int i = 0; i < n; ++i) {
    p.selectors.push_back(sel(rng));
    src += "DUP1 PUSH4 " + HexSelector(p.selectors.back()) + " EQ PUSH @f" +
           std::to_string(i) + " JUMPI\n";
  }
  src += "PUSH1 0x00 PUSH1 0x00 REVERT\n";
  for (int i = 0; i < n; ++i) {
    src += "f" + std::to_string(i) + ":\nPOP\n" + RandomBody(rng) + "STOP\n";
  }
  p.code = Asm(src);
  return p;
}

// Init code returning `runtime` verbatim, built byte-by-byte:
//   PUSH2 len PUSH1 14 PUSH1 0 CODECOPY PUSH2 len PUSH1 0 RETURN <runtime>
Bytes InitCodeFor(const Bytes& runtime) {
  EXPECT_LT(runtime.size(), 0x10000u);
  auto push2 = [](Bytes& out, size_t v) {
    out.push_back(static_cast<uint8_t>(evm::Opcode::PUSH1) + 1);  // PUSH2
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v & 0xff));
  };
  auto push1 = [](Bytes& out, uint8_t v) {
    out.push_back(static_cast<uint8_t>(evm::Opcode::PUSH1));
    out.push_back(v);
  };
  Bytes init;
  push2(init, runtime.size());
  push1(init, 14);  // offset of <runtime> below
  push1(init, 0);
  init.push_back(static_cast<uint8_t>(evm::Opcode::CODECOPY));
  push2(init, runtime.size());
  push1(init, 0);
  init.push_back(static_cast<uint8_t>(evm::Opcode::RETURN));
  EXPECT_EQ(init.size(), 14u);
  init.insert(init.end(), runtime.begin(), runtime.end());
  return init;
}

Bytes CallDataFor(uint32_t selector, const U256& arg) {
  Bytes data;
  data.push_back(static_cast<uint8_t>(selector >> 24));
  data.push_back(static_cast<uint8_t>(selector >> 16));
  data.push_back(static_cast<uint8_t>(selector >> 8));
  data.push_back(static_cast<uint8_t>(selector));
  auto word = arg.ToBigEndian();
  data.insert(data.end(), word.begin(), word.end());
  return data;
}

// ---- EVM-level differential: static slot sets vs the dynamic recorder ----

// Expected static footprint of one call, mirroring what the chain layer's
// BuildAccessHint derives from a schedulable summary. Intrinsic account
// fields are included generously for both endpoints; the differential
// content is the storage-slot containment.
void BuildExpected(const Address& caller, const Address& to,
                   const analysis::AccessSummary& summary,
                   state::AccessSet* reads, state::AccessSet* writes) {
  namespace key = state::access_key;
  for (const Address& a : {caller, to}) {
    reads->keys.insert(key::Existence(a));
    reads->keys.insert(key::Balance(a));
    reads->keys.insert(key::Nonce(a));
    reads->keys.insert(key::Code(a));
    writes->keys.insert(key::Balance(a));
  }
  for (const U256& slot : summary.reads.slots) {
    reads->keys.insert(key::Slot(to, slot));
  }
  for (const U256& slot : summary.writes.slots) {
    // SSTORE loads the slot first (original-value gas accounting), so every
    // static write slot is also a static read slot — same rule as the hint
    // builder.
    reads->keys.insert(key::Slot(to, slot));
    writes->keys.insert(key::Slot(to, slot));
  }
}

TEST(AccessFuzzTest, StaticSummaryCoversDynamicFootprint) {
  std::mt19937 rng(0x5eed5107);
  const Address caller = Addr(0xaa);
  const Address to = Addr(0xcc);
  std::uniform_int_distribution<int> undeclared(0, 7);
  std::uniform_int_distribution<uint64_t> arg(0, 1u << 20);
  int checked = 0;
  for (int iter = 0; iter < 48; ++iter) {
    RandomProgram program = MakeRandomProgram(rng);
    ASSERT_FALSE(program.code.empty());

    state::WorldState world;
    world.AddBalance(caller, U256(1'000'000'000));
    world.SetCode(to, program.code);
    std::shared_ptr<const analysis::ProgramAccess> access =
        analysis::AccessSummaryCache::Global().Get(world.GetCodeHash(to),
                                                   program.code);

    // Mix declared selectors with undeclared ones (which hit the REVERT
    // fallthrough and must still be covered by the program summary).
    uint32_t selector = undeclared(rng) == 0
                            ? 0xdeadbeefu
                            : program.selectors[iter % program.selectors.size()];
    const analysis::AccessSummary* summary = access->ForSelector(selector);
    if (summary == nullptr) summary = &access->program;
    if (!summary->StaticallySchedulable()) continue;  // chain falls back to ⊤

    state::SpeculativeState overlay(world);
    evm::BlockContext block;
    block.number = 7;
    block.coinbase = Addr(0xee);
    evm::TxContext txctx;
    txctx.origin = caller;
    txctx.gas_price = U256(1);
    evm::Evm evm(&overlay, block, txctx);
    evm::CallMessage msg;
    msg.caller = caller;
    msg.to = to;
    msg.data = CallDataFor(selector, U256(arg(rng)));
    msg.gas = 200'000;
    evm.Call(msg);  // reverts are fine: partial footprints must still nest

    state::AccessSet expected_reads;
    state::AccessSet expected_writes;
    BuildExpected(caller, to, *summary, &expected_reads, &expected_writes);
    EXPECT_TRUE(expected_reads.Covers(overlay.reads()))
        << "iter " << iter << " selector " << HexSelector(selector)
        << ": dynamic read escaped the static summary "
        << summary->ToString();
    EXPECT_TRUE(expected_writes.Covers(overlay.writes()))
        << "iter " << iter << " selector " << HexSelector(selector)
        << ": dynamic write escaped the static summary "
        << summary->ToString();
    ++checked;
  }
  // The generator is biased toward resolvable bodies; make sure the loop
  // actually exercised the containment check.
  EXPECT_GE(checked, 16);
}

// ---- Chain-level fuzz: the containment oracle under real blocks ---------

const U256 kEther = U256(10).Exp(U256(18));

chain::ChainConfig ParallelStaticConfig() {
  chain::ChainConfig config;
  config.exec_mode = chain::ExecMode::kParallel;
  config.exec_workers = 4;
  // Replays every block serially and aborts on divergence.
  config.assert_parallel_equivalence = true;
  // Audit every known hint against the recorded dynamic overlay.
  config.check_static_containment = true;
  return config;
}

chain::Transaction SignedTx(const secp256k1::PrivateKey& key, uint64_t nonce,
                            std::optional<Address> to, const U256& value,
                            Bytes data, uint64_t gas_limit) {
  chain::Transaction tx;
  tx.nonce = nonce;
  tx.gas_price = U256(1);
  tx.gas_limit = gas_limit;
  tx.to = to;
  tx.value = value;
  tx.data = std::move(data);
  tx.Sign(key);
  return tx;
}

void SubmitMineAndCompare(chain::Blockchain& serial,
                          chain::Blockchain& parallel,
                          const std::vector<chain::Transaction>& txs) {
  for (const chain::Transaction& tx : txs) {
    ASSERT_TRUE(serial.SubmitTransaction(tx).ok());
    ASSERT_TRUE(parallel.SubmitTransaction(tx).ok());
  }
  const chain::Block& sb = serial.MineBlock();
  const chain::Block& pb = parallel.MineBlock();
  ASSERT_EQ(pb.transactions.size(), txs.size());
  EXPECT_EQ(sb.header.state_root, pb.header.state_root);
  EXPECT_EQ(sb.header.receipt_root, pb.header.receipt_root);
  EXPECT_EQ(sb.header.gas_used, pb.header.gas_used);
}

class ChainAccessFuzzTest : public ::testing::Test {
 protected:
  ChainAccessFuzzTest()
      : serial_(chain::ChainConfig()), parallel_(ParallelStaticConfig()) {
    for (int i = 0; i < 8; ++i) {
      keys_.push_back(
          secp256k1::PrivateKey::FromSeed("fuzz-key-" + std::to_string(i)));
      serial_.FundAccount(keys_.back().EthAddress(), kEther * U256(100));
      parallel_.FundAccount(keys_.back().EthAddress(), kEther * U256(100));
    }
  }

  Address Deploy(const Bytes& runtime, size_t key_index, uint64_t* nonce) {
    chain::Transaction deploy =
        SignedTx(keys_[key_index], (*nonce)++, std::nullopt, U256(),
                 InitCodeFor(runtime), 1'000'000);
    SubmitMineAndCompare(serial_, parallel_, {deploy});
    auto receipt = parallel_.GetReceipt(deploy.Hash());
    EXPECT_TRUE(receipt.ok() && receipt->success);
    EXPECT_EQ(parallel_.GetCode(receipt->contract_address), runtime);
    return receipt->contract_address;
  }

  // The analyzer's summary for `selector` of `contract`, looked up the way
  // the chain's hint builder does. A schedulable summary yields a known
  // hint, so a zero violation count below audited a real claim.
  analysis::AccessSummary SelectorSummary(const Address& contract,
                                          uint32_t selector) const {
    std::shared_ptr<const analysis::ProgramAccess> access =
        analysis::AccessSummaryCache::Global().Get(
            parallel_.state().GetCodeHash(contract),
            parallel_.GetCode(contract));
    const analysis::AccessSummary* summary = access->ForSelector(selector);
    EXPECT_NE(summary, nullptr) << HexSelector(selector);
    return summary != nullptr ? *summary : access->program;
  }

  chain::Blockchain serial_;
  chain::Blockchain parallel_;
  std::vector<secp256k1::PrivateKey> keys_;
};

TEST_F(ChainAccessFuzzTest, RandomizedBlocksNeverViolateHintContainment) {
  std::mt19937 rng(0xacce55);
  std::vector<uint64_t> nonces(keys_.size(), 0);

  std::vector<RandomProgram> programs;
  std::vector<Address> contracts;
  for (int i = 0; i < 3; ++i) {
    programs.push_back(MakeRandomProgram(rng));
    contracts.push_back(Deploy(programs.back().code, 0, &nonces[0]));
  }

  std::uniform_int_distribution<size_t> tx_count(3, 10);
  std::uniform_int_distribution<size_t> pick_key(0, keys_.size() - 1);
  std::uniform_int_distribution<size_t> pick_contract(0, contracts.size() - 1);
  std::uniform_int_distribution<int> pick_kind(0, 7);
  std::uniform_int_distribution<uint64_t> arg(0, 1u << 16);
  for (int block = 0; block < 6; ++block) {
    std::vector<chain::Transaction> txs;
    size_t n = tx_count(rng);
    for (size_t t = 0; t < n; ++t) {
      size_t k = pick_key(rng);
      int kind = pick_kind(rng);
      if (kind == 0) {  // plain transfer
        txs.push_back(SignedTx(keys_[k], nonces[k]++,
                               keys_[(k + 3) % keys_.size()].EthAddress(),
                               U256(17), {}, 21'000));
        continue;
      }
      size_t c = pick_contract(rng);
      // Mostly declared selectors, sometimes garbage (REVERT path).
      uint32_t selector =
          kind == 1 ? 0xdeadbeefu
                    : programs[c].selectors[t % programs[c].selectors.size()];
      txs.push_back(SignedTx(keys_[k], nonces[k]++, contracts[c], U256(),
                             CallDataFor(selector, U256(arg(rng))), 200'000));
    }
    SubmitMineAndCompare(serial_, parallel_, txs);
  }
  // The soundness headline: no dynamic access ever escaped a known hint.
  EXPECT_EQ(parallel_.parallel_stats().hint_violations, 0u);
  ASSERT_EQ(serial_.blocks().size(), parallel_.blocks().size());
  for (size_t i = 0; i < serial_.blocks().size(); ++i) {
    EXPECT_EQ(serial_.blocks()[i].Hash(), parallel_.blocks()[i].Hash())
        << "block " << i;
  }
}

TEST_F(ChainAccessFuzzTest, CollidingCallsOnTwoContractsStayInsideTheirHints) {
  // Two contracts, each half of the senders hammering one slot of its own
  // contract. Within a half the calls serialize (same slot) and re-execute;
  // every speculation and re-execution stays inside its known hint.
  uint64_t nonce0 = 0;
  Bytes a = Asm(
      "PUSH1 0x00 CALLDATALOAD PUSH1 0xe0 SHR\n"
      "DUP1 PUSH4 0x11111111 EQ PUSH @f JUMPI\n"
      "PUSH1 0x00 PUSH1 0x00 REVERT\n"
      "f:\nPOP PUSH1 0x10 SLOAD PUSH1 0x01 ADD PUSH1 0x10 SSTORE STOP\n");
  Bytes b = Asm(
      "PUSH1 0x00 CALLDATALOAD PUSH1 0xe0 SHR\n"
      "DUP1 PUSH4 0x22222222 EQ PUSH @f JUMPI\n"
      "PUSH1 0x00 PUSH1 0x00 REVERT\n"
      "f:\nPOP PUSH1 0x20 SLOAD PUSH1 0x01 ADD PUSH1 0x20 SSTORE STOP\n");
  Address ca = Deploy(a, 0, &nonce0);
  Address cb = Deploy(b, 0, &nonce0);

  chain::ParallelExecStats before = parallel_.parallel_stats();
  std::vector<chain::Transaction> txs;
  for (size_t i = 0; i < keys_.size(); ++i) {
    uint64_t nonce = i == 0 ? nonce0 : 0;
    bool first_half = i < keys_.size() / 2;
    txs.push_back(SignedTx(keys_[i], nonce, first_half ? ca : cb, U256(),
                           CallDataFor(first_half ? 0x11111111u : 0x22222222u,
                                       U256(0)),
                           200'000));
  }
  SubmitMineAndCompare(serial_, parallel_, txs);

  EXPECT_TRUE(SelectorSummary(ca, 0x11111111u).StaticallySchedulable());
  EXPECT_TRUE(SelectorSummary(cb, 0x22222222u).StaticallySchedulable());
  const chain::ParallelExecStats& after = parallel_.parallel_stats();
  EXPECT_EQ(after.hint_violations, 0u);
  // The followers really do collide on their contract's slot.
  EXPECT_GT(after.conflicts - before.conflicts, 0u);
  EXPECT_EQ(parallel_.GetStorage(ca, U256(0x10)), U256(keys_.size() / 2));
  EXPECT_EQ(parallel_.GetStorage(cb, U256(0x20)), U256(keys_.size() / 2));
}

TEST_F(ChainAccessFuzzTest, PerSenderSlotsCommitTheWholeBlockInsideTheirHints) {
  // One contract, eight selectors, each touching its own slot: the entire
  // block commits without a conflict, and every hint is known and holds.
  uint64_t nonce0 = 0;
  std::string src = "PUSH1 0x00 CALLDATALOAD PUSH1 0xe0 SHR\n";
  for (size_t i = 0; i < 8; ++i) {
    src += "DUP1 PUSH4 " + HexSelector(0x11110000u + static_cast<uint32_t>(i)) +
           " EQ PUSH @f" + std::to_string(i) + " JUMPI\n";
  }
  src += "PUSH1 0x00 PUSH1 0x00 REVERT\n";
  for (size_t i = 0; i < 8; ++i) {
    src += "f" + std::to_string(i) + ":\nPOP PUSH1 " + Hex2(0x50 + i) +
           " SLOAD PUSH1 0x01 ADD PUSH1 " + Hex2(0x50 + i) + " SSTORE STOP\n";
  }
  Address contract = Deploy(Asm(src), 0, &nonce0);

  chain::ParallelExecStats before = parallel_.parallel_stats();
  std::vector<chain::Transaction> txs;
  for (size_t i = 0; i < keys_.size(); ++i) {
    uint64_t nonce = i == 0 ? nonce0 : 0;
    txs.push_back(SignedTx(
        keys_[i], nonce, contract, U256(),
        CallDataFor(0x11110000u + static_cast<uint32_t>(i), U256(0)),
        200'000));
  }
  SubmitMineAndCompare(serial_, parallel_, txs);

  for (size_t i = 0; i < keys_.size(); ++i) {
    EXPECT_TRUE(
        SelectorSummary(contract, 0x11110000u + static_cast<uint32_t>(i))
            .StaticallySchedulable());
  }
  const chain::ParallelExecStats& after = parallel_.parallel_stats();
  EXPECT_EQ(after.hint_violations, 0u);
  EXPECT_EQ(after.conflicts - before.conflicts, 0u);
  for (size_t i = 0; i < keys_.size(); ++i) {
    EXPECT_EQ(parallel_.GetStorage(contract, U256(0x50 + i)), U256(1));
  }
}

TEST_F(ChainAccessFuzzTest, UnresolvableKeysFallBackToTheOptimisticPath) {
  // Calldata-keyed stores: the analyzer reports ⊤, hints stay unknown (so
  // there is nothing to audit), and the block commits through the dynamic
  // conflict check like any other.
  uint64_t nonce0 = 0;
  Bytes runtime = Asm(
      "PUSH1 0x00 CALLDATALOAD PUSH1 0xe0 SHR\n"
      "DUP1 PUSH4 0x33333333 EQ PUSH @f JUMPI\n"
      "PUSH1 0x00 PUSH1 0x00 REVERT\n"
      "f:\nPOP PUSH1 0x2a PUSH1 0x04 CALLDATALOAD SSTORE STOP\n");
  Address contract = Deploy(runtime, 0, &nonce0);

  std::vector<chain::Transaction> txs;
  for (size_t i = 0; i < 4; ++i) {
    uint64_t nonce = i == 0 ? nonce0 : 0;
    txs.push_back(SignedTx(keys_[i], nonce, contract, U256(),
                           CallDataFor(0x33333333u, U256(0x100 + i)),
                           200'000));
  }
  SubmitMineAndCompare(serial_, parallel_, txs);

  EXPECT_FALSE(SelectorSummary(contract, 0x33333333u).StaticallySchedulable());
  const chain::ParallelExecStats& after = parallel_.parallel_stats();
  EXPECT_EQ(after.hint_violations, 0u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(parallel_.GetStorage(contract, U256(0x100 + i)), U256(0x2a));
  }
}

// ---- Protocol drivers: every settlement path, containment audited ----

TEST(ProtocolAccessFuzzTest, EveryProtocolPathRunsCleanUnderContainmentAudit) {
  using core::Behavior;
  using core::Settlement;
  struct Scenario {
    const char* name;
    Behavior loser;
    Settlement expected;
  };
  Behavior dishonest;
  dishonest.admit_loss = false;
  Behavior no_sign;
  no_sign.sign_offchain_copy = false;
  Behavior no_deposit;
  no_deposit.make_deposit = false;
  const Scenario scenarios[] = {
      {"honest", Behavior{}, Settlement::kOptimistic},
      {"dishonest-loser", dishonest, Settlement::kDisputed},
      {"refuses-to-sign", no_sign, Settlement::kAbortedUnsigned},
      {"missing-deposit", no_deposit, Settlement::kRefunded},
  };
  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(s.name);
    auto alice = secp256k1::PrivateKey::FromSeed("alice");
    auto bob = secp256k1::PrivateKey::FromSeed("bob");
    chain::Blockchain chain(ParallelStaticConfig());
    chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
    chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
    core::MessageBus bus;
    contracts::OffchainConfig offchain;
    offchain.secret_alice = U256(0xa11ce);
    offchain.secret_bob = U256(0xb0b);
    offchain.reveal_iterations = 20;
    core::BettingProtocol protocol(&chain, &bus, alice, bob, offchain,
                                   contracts::Ether(1));
    auto report = protocol.Run(Behavior{}, s.loser);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->settlement, s.expected);
    EXPECT_TRUE(report->correct_payout);
    // No dynamic access on any driver path escaped a static hint.
    EXPECT_EQ(chain.parallel_stats().hint_violations, 0u);
  }
}

}  // namespace
}  // namespace onoff
