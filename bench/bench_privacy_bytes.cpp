// Ablation C: privacy — bytes of contract content exposed on the public
// chain under each execution model, swept over the size of the private
// logic. Quantifies the claim that "sensitive information involved in the
// off-chain contract can be hidden from the public".

#include <cstdio>

#include "bet_run.h"
#include "obs/export.h"
#include "support/flags.h"

using namespace onoff;
using core::Behavior;

namespace {

struct Exposure {
  size_t offchain_code_public;  // off-chain contract bytes that went public
  size_t total_public_bytes;    // all calldata + code on the chain
};

Exposure RunHybrid(uint64_t reveal_iterations, bool dispute) {
  Behavior behavior;
  behavior.admit_loss = !dispute;
  core::ProtocolReport report =
      bench::RunBet(reveal_iterations, behavior, behavior);
  return Exposure{report.private_bytes_revealed, report.TotalOnchainBytes()};
}

Exposure RunAllOnChain(uint64_t reveal_iterations) {
  bench::PublicOffchainDeploy deploy(reveal_iterations);
  size_t code = deploy.chain.GetCode(deploy.receipt.contract_address).size();
  // The whole private logic is published: init calldata + runtime code.
  size_t published = deploy.init.size() + code;
  return Exposure{published, published};
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_privacy_bytes.json");
  flags::ExitOnLeftoverArgs(argc, argv, "[--json <path>|-]");
  std::printf("=== Ablation C: private bytes exposed on-chain ===\n\n");
  std::printf("%-14s %22s %22s %22s\n", "reveal iters",
              "all-on-chain (bytes)", "hybrid optimistic", "hybrid disputed");
  obs::Json rows = obs::Json::Array();
  for (uint64_t iters : {0ull, 100ull, 1000ull, 10000ull}) {
    Exposure aoc = RunAllOnChain(iters);
    Exposure opt = RunHybrid(iters, false);
    Exposure dis = RunHybrid(iters, true);
    std::printf("%-14llu %22zu %22zu %22zu\n",
                static_cast<unsigned long long>(iters),
                aoc.offchain_code_public, opt.offchain_code_public,
                dis.offchain_code_public);
    rows.Push(
        obs::Json::Object()
            .Set("reveal_iterations", obs::Json::Uint(iters))
            .Set("all_on_chain_bytes", obs::Json::Uint(aoc.offchain_code_public))
            .Set("hybrid_optimistic_bytes",
                 obs::Json::Uint(opt.offchain_code_public))
            .Set("hybrid_disputed_bytes",
                 obs::Json::Uint(dis.offchain_code_public))
            .Set("hybrid_total_public_bytes",
                 obs::Json::Uint(dis.total_public_bytes)));
  }
  std::printf(
      "\nShape check: the optimistic hybrid path exposes 0 bytes of the\n"
      "private contract regardless of its size; all-on-chain always\n"
      "exposes everything; a dispute exposes the signed bytecode once.\n"
      "(The private logic's byte size is constant in reveal iterations here\n"
      "because the loop bound is one immediate; the exposure difference\n"
      "between columns is the structural result.)\n");

  if (!json_path.empty()) {
    obs::Json results = obs::Json::Object();
    results.Set("rows", std::move(rows));
    Status st = obs::WriteBenchJson(json_path, "privacy_bytes",
                                    std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
