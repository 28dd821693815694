// Substrate microbenchmarks (google-benchmark): the primitives every
// protocol run leans on — keccak, SHA-256, secp256k1 sign/verify/recover,
// RLP, trie roots, EVM interpretation and signed-copy round trips.

#include <benchmark/benchmark.h>

#include <string>

#include "chain/transaction.h"
#include "obs/export.h"
#include "crypto/keccak.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "easm/assembler.h"
#include "onoff/signed_copy.h"
#include "evm/evm.h"
#include "rlp/rlp.h"
#include "state/world_state.h"
#include "storage/shared_trie.h"

namespace onoff {
namespace {

void BM_Keccak256(benchmark::State& state) {
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Keccak256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(32)->Arg(1024)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  Bytes data(state.range(0), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(1024)->Arg(65536);

void BM_EcdsaSign(benchmark::State& state) {
  auto key = secp256k1::PrivateKey::FromSeed("bench");
  Hash32 digest = Keccak256(BytesOf("payload"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::Sign(digest, key));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  auto key = secp256k1::PrivateKey::FromSeed("bench");
  Hash32 digest = Keccak256(BytesOf("payload"));
  auto sig = secp256k1::Sign(digest, key);
  auto pub = key.PublicKey();
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::Verify(digest, *sig, pub));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_EcdsaRecover(benchmark::State& state) {
  auto key = secp256k1::PrivateKey::FromSeed("bench");
  Hash32 digest = Keccak256(BytesOf("payload"));
  auto sig = secp256k1::Sign(digest, key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        secp256k1::RecoverAddress(digest, sig->v, sig->r, sig->s));
  }
}
BENCHMARK(BM_EcdsaRecover);

void BM_RlpEncodeTx(benchmark::State& state) {
  chain::Transaction tx;
  tx.nonce = 42;
  tx.gas_price = U256(20);
  tx.gas_limit = 100'000;
  tx.to = Address();
  tx.data = Bytes(200, 0x60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.Encode());
  }
}
BENCHMARK(BM_RlpEncodeTx);

void BM_TrieRoot(benchmark::State& state) {
  for (auto _ : state) {
    storage::SecureSharedTrie trie;
    for (int i = 0; i < state.range(0); ++i) {
      Bytes key = U256(static_cast<uint64_t>(i)).ToBytes();
      trie.Put(key, BytesOf("value" + std::to_string(i)));
    }
    benchmark::DoNotOptimize(trie.RootHash());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrieRoot)->Arg(16)->Arg(128)->Arg(1024);

void BM_EvmKeccakLoop(benchmark::State& state) {
  // Interpreter throughput on the reveal()-style keccak chain.
  state::WorldState world;
  Address contract = Address::FromWord(U256(0xcc));
  auto code = easm::Assemble(R"(
    PUSH1 0x00 PUSH1 0x00 MSTORE
    PUSH2 0x03e8          ; n = 1000
    loop:
    DUP1 ISZERO PUSH @end JUMPI
    PUSH1 1 SWAP1 SUB
    PUSH1 0x20 PUSH1 0x00 SHA3
    PUSH1 0x00 MSTORE
    PUSH @loop JUMP
    end:
    STOP
  )");
  world.SetCode(contract, *code);
  evm::BlockContext block;
  evm::TxContext tx;
  for (auto _ : state) {
    evm::Evm evm(&world, block, tx);
    evm::CallMessage msg;
    msg.caller = Address::FromWord(U256(0xaa));
    msg.to = contract;
    msg.gas = 10'000'000;
    auto res = evm.Call(msg);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // keccaks
}
BENCHMARK(BM_EvmKeccakLoop);

void BM_SignedCopyRoundTrip(benchmark::State& state) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  Bytes bytecode(600, 0xab);
  for (auto _ : state) {
    core::SignedCopy copy(bytecode);
    // Filler bytes, not real bytecode: keep the audit out of the timing.
    copy.set_audit_enabled(false);
    copy.AddSignature(alice);
    copy.AddSignature(bob);
    auto st =
        copy.VerifyComplete({alice.EthAddress(), bob.EthAddress()});
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_SignedCopyRoundTrip);

}  // namespace
}  // namespace onoff

int main(int argc, char** argv) {
  // Strip our --json/--metrics-json flag before google-benchmark parses the
  // remaining arguments (it rejects flags it does not recognise).
  std::string json_path =
      onoff::obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_substrate.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) {
    onoff::obs::Json results = onoff::obs::Json::Object();
    results.Set("note",
                onoff::obs::Json::Str(
                    "timing series are printed by google-benchmark; rerun "
                    "with --benchmark_format=json for raw timings"));
    onoff::Status st = onoff::obs::WriteBenchJson(json_path, "substrate",
                                                  std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
