// Signature hot-path microbenchmarks: sign / verify / recover ops/sec on the
// library's secp256k1 path, the field kernels behind them, keccak256 of a
// hash-sized input, of a full trie branch node and of 64 KiB, SHA-256 of
// 32 B and 64 KiB, the RLP encoding of a transaction, and end to end on
// the same cold transactions: admission one at a time against batch
// admission (senders recovered on the shared pool), and chain
// verification. Emits BENCH_crypto.json (onoffchain-bench-v1 schema).
//
//   bench_crypto [--iters N] [--blocks B] [--txs T] [--json PATH]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "chain/validator.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "obs/export.h"
#include "support/flags.h"
#include "support/thread_pool.h"

using namespace onoff;

namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Microseconds per `op(i)` over `iters` iterations, after one untimed call
// that warms the precomputed tables.
template <typename Op>
double TimeOp(int iters, const Op& op) {
  op(0);
  double start = NowUs();
  for (int i = 0; i < iters; ++i) op(i);
  return (NowUs() - start) / iters;
}

void PrintOp(const char* name, double us_per_op) {
  std::printf("%-22s %10.3f %12.0f\n", name, us_per_op, 1e6 / us_per_op);
}

obs::Json OpJson(double us_per_op) {
  return obs::Json::Object()
      .Set("us_per_op", obs::Json::Num(us_per_op))
      .Set("ops_per_sec", obs::Json::Num(1e6 / us_per_op));
}

// A chain of `blocks` blocks with `txs_per_block` transfers each, with every
// transaction's sender memo stripped (round-tripping through the wire format
// yields cold transactions, like a block downloaded from a peer).
struct VerifyFixture {
  std::vector<chain::Block> blocks;
  chain::GenesisAlloc alloc;
  chain::ChainConfig config;
  size_t tx_count = 0;
};

VerifyFixture BuildChain(int blocks, int txs_per_block) {
  VerifyFixture fx;
  auto alice = secp256k1::PrivateKey::FromSeed("bench-alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bench-bob");
  U256 funding = U256(10).Exp(U256(18));
  fx.alloc = {{alice.EthAddress(), funding}, {bob.EthAddress(), funding}};
  chain::Blockchain chain;
  for (const auto& [addr, amount] : fx.alloc) chain.FundAccount(addr, amount);
  fx.config = chain.config();
  uint64_t alice_nonce = 0;
  uint64_t bob_nonce = 0;
  for (int b = 0; b < blocks; ++b) {
    for (int t = 0; t < txs_per_block; ++t) {
      bool from_alice = t % 2 == 0;
      chain::Transaction tx;
      tx.nonce = from_alice ? alice_nonce++ : bob_nonce++;
      tx.gas_price = U256(1);
      tx.gas_limit = 21'000;
      tx.to = (from_alice ? bob : alice).EthAddress();
      tx.value = U256(1);
      tx.Sign(from_alice ? alice : bob);
      auto hash = chain.SubmitTransaction(tx);
      if (!hash.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     hash.status().ToString().c_str());
        std::exit(1);
      }
      ++fx.tx_count;
    }
    chain.MineBlock();
  }
  fx.blocks = chain.blocks();
  return fx;
}

// Copies the fixture's blocks with every sender memo cold (decode resets
// the mutable cache), so each timed run pays for all recoveries.
std::vector<chain::Block> ColdBlocks(const VerifyFixture& fx) {
  std::vector<chain::Block> cold = fx.blocks;
  for (chain::Block& block : cold) {
    for (chain::Transaction& tx : block.transactions) {
      auto decoded = chain::Transaction::Decode(tx.Encode());
      if (!decoded.ok()) {
        std::fprintf(stderr, "decode failed: %s\n",
                     decoded.status().ToString().c_str());
        std::exit(1);
      }
      tx = *decoded;
    }
  }
  return cold;
}

// The least of `rounds` timings, each the microseconds `run` returns.
template <typename Run>
double BestOf(int rounds, const Run& run) {
  double best = 0;
  for (int r = 0; r < rounds; ++r) {
    double elapsed = run();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

// Admits every block's cold transactions into a fresh chain funded with the
// genesis allocation, one SubmitTransaction at a time or as one
// SubmitTransactions batch; only admission is timed.
double TimeAdmission(const VerifyFixture& fx, bool batch, int rounds,
                     bool* all_ok) {
  return BestOf(rounds, [&] {
    std::vector<chain::Transaction> txs;
    for (chain::Block& block : ColdBlocks(fx)) {
      for (chain::Transaction& tx : block.transactions) {
        txs.push_back(std::move(tx));
      }
    }
    chain::Blockchain chain(fx.config);
    for (const auto& [addr, amount] : fx.alloc) chain.FundAccount(addr, amount);
    bool ok = true;
    double start = NowUs();
    if (batch) {
      for (const Result<Hash32>& r : chain.SubmitTransactions(txs)) {
        ok = r.ok() && ok;
      }
    } else {
      for (const chain::Transaction& tx : txs) {
        ok = chain.SubmitTransaction(tx).ok() && ok;
      }
    }
    double elapsed = NowUs() - start;
    if (!ok) *all_ok = false;
    return elapsed;
  });
}

double TimeVerify(const VerifyFixture& fx, int rounds, bool* all_ok) {
  return BestOf(rounds, [&] {
    std::vector<chain::Block> cold = ColdBlocks(fx);
    double start = NowUs();
    Status st = chain::VerifyChain(cold, fx.alloc, fx.config);
    double elapsed = NowUs() - start;
    if (!st.ok()) *all_ok = false;
    return elapsed;
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_crypto.json");
  int iters =
      static_cast<int>(flags::U64FlagFromArgs(&argc, argv, "iters", 400));
  int blocks =
      static_cast<int>(flags::U64FlagFromArgs(&argc, argv, "blocks", 8));
  int txs_per_block =
      static_cast<int>(flags::U64FlagFromArgs(&argc, argv, "txs", 16));
  flags::ExitOnLeftoverArgs(
      argc, argv, "[--iters N] [--blocks N] [--txs N] [--json <path>|-]");
  if (iters < 1) iters = 1;

  std::printf("=== secp256k1 hot path ===\n");
  std::printf("iters: %d\n\n", iters);
  std::printf("%-22s %10s %12s\n", "op", "us/op", "op/s");

  auto key = secp256k1::PrivateKey::FromSeed("bench-signer");
  std::vector<Hash32> digests;
  std::vector<secp256k1::Signature> sigs;
  for (int i = 0; i < iters; ++i) {
    digests.push_back(Keccak256(BytesOf("bench-msg-" + std::to_string(i))));
    auto sig = secp256k1::Sign(digests.back(), key);
    if (!sig.ok()) {
      std::fprintf(stderr, "sign failed\n");
      return 1;
    }
    sigs.push_back(*sig);
  }
  secp256k1::AffinePoint pub = key.PublicKey();

  double sign = TimeOp(iters, [&](int i) {
    (void)secp256k1::Sign(digests[i % iters], key);
  });
  PrintOp("sign", sign);

  double verify = TimeOp(iters, [&](int i) {
    (void)secp256k1::Verify(digests[i % iters], sigs[i % iters], pub);
  });
  PrintOp("verify", verify);

  double recover = TimeOp(iters, [&](int i) {
    const auto& sig = sigs[i % iters];
    (void)secp256k1::RecoverAddress(digests[i % iters], sig.v, sig.r, sig.s);
  });
  PrintOp("recover", recover);

  // Field kernels (many more iterations — these are nanosecond-scale). Each
  // result feeds the next call, so the chain cannot be hoisted.
  U256 elem = U256(0x1234567890abcdefULL, 0xfedcba0987654321ULL,
                   0x0f1e2d3c4b5a6978ULL, 0x8796a5b4c3d2e1f0ULL) %
              secp256k1::FieldPrime();
  double field_sqr = TimeOp(iters * 250, [&](int) {
    elem = secp256k1::internal::FieldSqr(elem);
  });
  PrintOp("field sqr", field_sqr);

  double field_inv = TimeOp(iters * 4, [&](int i) {
    elem = secp256k1::internal::FieldInv(elem + U256(i));
  });
  PrintOp("field inv", field_inv);
  if (elem.IsZero()) std::printf("(unreachable)\n");  // keep elem live

  // Keccak-256 of 32 bytes (a key or code hash: one permutation), of 532
  // bytes (a full 16-child branch node: four) and of 64 KiB, and SHA-256
  // (the precompile) of 32 bytes and 64 KiB. Each digest is folded into the
  // next input, so the calls cannot be hoisted.
  Hash32 digest = digests[0];
  auto time_hash = [&digest](int calls, size_t len, Hash32 (*hash)(BytesView)) {
    Bytes input(len, 0xa5);
    return TimeOp(calls, [&](int) {
      std::copy(digest.begin(), digest.end(), input.begin());
      digest = hash(input);
    });
  };
  double keccak_32 = time_hash(iters * 250, 32, &Keccak256);
  PrintOp("keccak256 32 B", keccak_32);
  double keccak_532 = time_hash(iters * 50, 532, &Keccak256);
  PrintOp("keccak256 532 B", keccak_532);
  double keccak_64k = time_hash(iters, 65536, &Keccak256);
  PrintOp("keccak256 64 KiB", keccak_64k);
  double sha256_32 = time_hash(iters * 250, 32, &Sha256);
  PrintOp("sha256 32 B", sha256_32);
  double sha256_64k = time_hash(iters, 65536, &Sha256);
  PrintOp("sha256 64 KiB", sha256_64k);
  if (digest == Hash32{}) std::printf("(unreachable)\n");  // keep digest live

  // RLP encoding of a call transaction with 200 bytes of calldata; the
  // encoded sizes are summed so the calls cannot be dropped.
  chain::Transaction rlp_tx;
  rlp_tx.nonce = 42;
  rlp_tx.gas_price = U256(20);
  rlp_tx.gas_limit = 100'000;
  rlp_tx.to = Address();
  rlp_tx.data = Bytes(200, 0x60);
  size_t encoded_bytes = 0;
  double rlp_encode = TimeOp(iters * 50, [&](int) {
    encoded_bytes += rlp_tx.Encode().size();
  });
  PrintOp("rlp encode tx", rlp_encode);
  if (encoded_bytes == 0) std::printf("(unreachable)\n");  // keep it live

  // End to end on the same cold transactions, as a node would run them:
  // admission one at a time and as one batch, then chain verification.
  VerifyFixture fx = BuildChain(blocks, txs_per_block);
  const size_t workers = ThreadPool::Shared().worker_count();
  bool admit_ok = true;
  double admit_serial_us = TimeAdmission(fx, /*batch=*/false, /*rounds=*/3,
                                         &admit_ok);
  double admit_batch_us = TimeAdmission(fx, /*batch=*/true, /*rounds=*/3,
                                        &admit_ok);
  std::printf("\n=== admission (%zu cold txs, %zu workers) ===\n",
              fx.tx_count, workers);
  std::printf("one at a time: %10.0f us (%.1f tx/s)\n", admit_serial_us,
              fx.tx_count * 1e6 / admit_serial_us);
  std::printf("batch:         %10.0f us (%.1f tx/s)  speedup %.2fx\n",
              admit_batch_us, fx.tx_count * 1e6 / admit_batch_us,
              admit_serial_us / admit_batch_us);
  std::printf("statuses ok: %s\n", admit_ok ? "yes" : "NO");

  bool verify_ok = true;
  double verify_us = TimeVerify(fx, /*rounds=*/3, &verify_ok);
  std::printf("\n=== chain verification (%d blocks x %d txs, %zu workers) "
              "===\n",
              blocks, txs_per_block, workers);
  std::printf("verify: %10.0f us (%.1f tx/s)\n", verify_us,
              fx.tx_count * 1e6 / verify_us);
  std::printf("statuses ok: %s\n", verify_ok ? "yes" : "NO");

  obs::Json results =
      obs::Json::Object()
          .Set("iters", obs::Json::Int(iters))
          // The machine the timings came from (the admission rows' workers
          // is the shared pool's size, not the core count).
          .Set("hardware_threads",
               obs::Json::Uint(std::max(1u, std::thread::hardware_concurrency())))
          .Set("sign", OpJson(sign))
          .Set("verify", OpJson(verify))
          .Set("recover", OpJson(recover))
          .Set("field_sqr", OpJson(field_sqr))
          .Set("field_inv", OpJson(field_inv))
          .Set("keccak256_32", OpJson(keccak_32))
          .Set("keccak256_532", OpJson(keccak_532))
          .Set("keccak256_65536", OpJson(keccak_64k))
          .Set("sha256_32", OpJson(sha256_32))
          .Set("sha256_65536", OpJson(sha256_64k))
          .Set("rlp_encode_tx", OpJson(rlp_encode))
          .Set("admission",
               obs::Json::Object()
                   .Set("tx_count", obs::Json::Uint(fx.tx_count))
                   .Set("workers", obs::Json::Uint(workers))
                   .Set("serial_us", obs::Json::Num(admit_serial_us))
                   .Set("batch_us", obs::Json::Num(admit_batch_us))
                   .Set("statuses_ok", obs::Json::Bool(admit_ok)))
          .Set("verify_chain",
               obs::Json::Object()
                   .Set("blocks", obs::Json::Int(blocks))
                   .Set("txs_per_block", obs::Json::Int(txs_per_block))
                   .Set("tx_count", obs::Json::Uint(fx.tx_count))
                   .Set("workers", obs::Json::Uint(workers))
                   .Set("us", obs::Json::Num(verify_us))
                   .Set("statuses_ok", obs::Json::Bool(verify_ok)));
  if (!json_path.empty()) {
    Status st = obs::WriteBenchJson(json_path, "crypto", std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "json write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return admit_ok && verify_ok ? 0 : 1;
}
