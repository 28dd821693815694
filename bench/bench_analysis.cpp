// Static-analyzer throughput over the bundled contracts: how fast the
// pre-signing audit runs, in bytes and basic blocks per second. The audit
// sits on the signing path of every off-chain contract exchange, so its
// cost must stay negligible next to the ECDSA work it gates.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "contracts/betting.h"
#include "contracts/synthetic.h"
#include "crypto/secp256k1.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "support/flags.h"

using namespace onoff;

namespace {

struct Subject {
  std::string name;
  Bytes init_code;
};

std::vector<Subject> BundledContracts() {
  contracts::BettingConfig betting;
  betting.alice = secp256k1::PrivateKey::FromSeed("alice").EthAddress();
  betting.bob = secp256k1::PrivateKey::FromSeed("bob").EthAddress();
  betting.deposit_amount = contracts::Ether(1);
  betting.t1 = 1100;
  betting.t2 = 1200;
  betting.t3 = 1300;

  contracts::OffchainConfig offchain;
  offchain.alice = betting.alice;
  offchain.bob = betting.bob;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 100;

  contracts::SyntheticConfig synthetic;
  synthetic.num_light = 8;
  synthetic.num_heavy = 8;

  std::vector<Subject> subjects;
  subjects.push_back({"betting-onchain", *contracts::BuildOnChainInit(betting)});
  subjects.push_back(
      {"betting-offchain", *contracts::BuildOffChainInit(offchain)});
  subjects.push_back(
      {"synthetic-whole", *contracts::BuildWholeInit(synthetic)});
  subjects.push_back(
      {"synthetic-hybrid-on", *contracts::BuildHybridOnChainInit(synthetic)});
  subjects.push_back(
      {"synthetic-hybrid-off", *contracts::BuildHybridOffChainInit(synthetic)});
  return subjects;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_analysis.json");
  flags::ExitOnLeftoverArgs(argc, argv, "[--json <path>|-]");
  constexpr int kRepetitions = 200;

  std::printf("=== Static analyzer throughput (pre-signing audit) ===\n\n");
  std::printf("%-22s %8s %8s %10s %12s %12s\n", "contract", "bytes", "blocks",
              "us/audit", "MB/s", "blocks/s");

  obs::Json rows = obs::Json::Array();
  for (const Subject& subject : BundledContracts()) {
    // One un-timed run for the shape numbers (and to fault in any lazily
    // initialized tables).
    analysis::DeploymentReport shape =
        analysis::AnalyzeDeployment(subject.init_code);
    if (shape.HasErrors()) {
      std::fprintf(stderr, "%s: bundled contract failed its own audit\n",
                   subject.name.c_str());
      return 1;
    }
    size_t blocks = shape.init.cfg.blocks.size();
    if (shape.runtime.has_value()) blocks += shape.runtime->cfg.blocks.size();

    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRepetitions; ++i) {
      analysis::DeploymentReport report =
          analysis::AnalyzeDeployment(subject.init_code);
      if (report.HasErrors()) return 1;
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    double us_per_audit = seconds * 1e6 / kRepetitions;
    double mb_per_s = static_cast<double>(subject.init_code.size()) *
                      kRepetitions / seconds / 1e6;
    double blocks_per_s = static_cast<double>(blocks) * kRepetitions / seconds;

    std::printf("%-22s %8zu %8zu %10.1f %12.1f %12.0f\n",
                subject.name.c_str(), subject.init_code.size(), blocks,
                us_per_audit, mb_per_s, blocks_per_s);
    rows.Push(obs::Json::Object()
                  .Set("contract", obs::Json::Str(subject.name))
                  .Set("bytes", obs::Json::Uint(subject.init_code.size()))
                  .Set("blocks", obs::Json::Uint(blocks))
                  .Set("us_per_audit", obs::Json::Num(us_per_audit))
                  .Set("mb_per_s", obs::Json::Num(mb_per_s))
                  .Set("blocks_per_s", obs::Json::Num(blocks_per_s)));
  }

  std::printf(
      "\nShape check: every bundled contract audits in well under a\n"
      "millisecond — the pre-signing audit is free next to the two ECDSA\n"
      "signatures it protects. The analysis_* counters in the JSON metrics\n"
      "dump record programs/blocks/edges/bytes analyzed and rejections.\n");

  if (!json_path.empty()) {
    obs::Json results = obs::Json::Object();
    results.Set("repetitions", obs::Json::Uint(kRepetitions));
    results.Set("rows", std::move(rows));
    Status st = obs::WriteBenchJson(json_path, "analysis", std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
