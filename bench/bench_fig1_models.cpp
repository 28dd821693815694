// Fig. 1 reproduction: all-on-chain vs hybrid-on/off-chain execution model.
//
// The figure contrasts the two models on a contract with light functions
// (f1, f3, f5 / c1, c3, c5) and heavy functions (f2, f4 / c2, c4, c6): under
// the hybrid model miners only execute the light functions plus cheap result
// submissions, while participants run the heavy ones privately.
//
// We generate synthetic contracts with n light + m heavy functions, run the
// same workload under both models, and report miner gas, transaction counts
// and bytes that reached the chain — swept over (a) the per-function heavy
// cost and (b) the number of heavy functions.

#include <cstdio>

#include "chain/blockchain.h"
#include "contracts/betting.h"  // Ether()
#include "contracts/synthetic.h"
#include "crypto/secp256k1.h"
#include "obs/export.h"
#include "support/flags.h"

using namespace onoff;
using contracts::Ether;
using contracts::SyntheticConfig;
using secp256k1::PrivateKey;

namespace {

struct ModelCost {
  uint64_t miner_gas = 0;   // gas actually executed by miners
  int transactions = 0;
  size_t onchain_bytes = 0;  // calldata + deployed code
};

// Runs every function once under the all-on-chain model.
ModelCost RunWhole(const SyntheticConfig& cfg) {
  auto user = PrivateKey::FromSeed("user");
  chain::Blockchain chain;
  chain.FundAccount(user.EthAddress(), Ether(1000));
  ModelCost cost;

  auto init = contracts::BuildWholeInit(cfg);
  auto deploy = chain.Execute(user, std::nullopt, U256(), *init, 8'000'000);
  cost.miner_gas += deploy->gas_used;
  cost.transactions += 1;
  cost.onchain_bytes +=
      init->size() + chain.GetCode(deploy->contract_address).size();
  Address contract = deploy->contract_address;

  for (int i = 0; i < cfg.num_light; ++i) {
    Bytes data = contracts::LightCalldata(i);
    cost.onchain_bytes += data.size();
    auto r = chain.Execute(user, contract, U256(), std::move(data), 8'000'000);
    cost.miner_gas += r->gas_used;
    cost.transactions += 1;
  }
  for (int i = 0; i < cfg.num_heavy; ++i) {
    Bytes data = contracts::HeavyCalldata(i);
    cost.onchain_bytes += data.size();
    auto r = chain.Execute(user, contract, U256(), std::move(data), 8'000'000);
    if (!r->success) {
      std::fprintf(stderr, "heavy function ran out of block gas\n");
      std::exit(1);
    }
    cost.miner_gas += r->gas_used;
    cost.transactions += 1;
  }
  return cost;
}

// Runs the same workload under the hybrid model: heavy functions execute on
// the participant's local EVM; only submitResult() transactions go on-chain.
ModelCost RunHybrid(const SyntheticConfig& cfg) {
  auto user = PrivateKey::FromSeed("user");
  chain::Blockchain chain;
  chain.FundAccount(user.EthAddress(), Ether(1000));
  ModelCost cost;

  auto init = contracts::BuildHybridOnChainInit(cfg);
  auto deploy = chain.Execute(user, std::nullopt, U256(), *init, 8'000'000);
  cost.miner_gas += deploy->gas_used;
  cost.transactions += 1;
  cost.onchain_bytes +=
      init->size() + chain.GetCode(deploy->contract_address).size();
  Address contract = deploy->contract_address;

  for (int i = 0; i < cfg.num_light; ++i) {
    Bytes data = contracts::LightCalldata(i);
    cost.onchain_bytes += data.size();
    auto r = chain.Execute(user, contract, U256(), std::move(data), 8'000'000);
    cost.miner_gas += r->gas_used;
    cost.transactions += 1;
  }

  // Off-chain: a private local chain that miners never see.
  chain::Blockchain local;
  local.FundAccount(user.EthAddress(), Ether(10));
  auto offchain_init = contracts::BuildHybridOffChainInit(cfg);
  auto local_deploy =
      local.Execute(user, std::nullopt, U256(), *offchain_init, 8'000'000);
  for (int i = 0; i < cfg.num_heavy; ++i) {
    auto res = local.CallReadOnly(user.EthAddress(),
                                  local_deploy->contract_address,
                                  contracts::HeavyCalldata(i));
    U256 result = U256::FromBigEndianTruncating(res.output);
    Bytes data = contracts::SubmitResultCalldata(i, result);
    cost.onchain_bytes += data.size();
    auto r = chain.Execute(user, contract, U256(), std::move(data), 8'000'000);
    cost.miner_gas += r->gas_used;
    cost.transactions += 1;
  }
  return cost;
}

void PrintRow(const char* label, const ModelCost& whole,
              const ModelCost& hybrid) {
  double ratio = static_cast<double>(whole.miner_gas) /
                 static_cast<double>(hybrid.miner_gas);
  std::printf("%-22s %12llu %12llu %7.2fx %8d/%-8d %9zu/%-9zu\n", label,
              static_cast<unsigned long long>(whole.miner_gas),
              static_cast<unsigned long long>(hybrid.miner_gas), ratio,
              whole.transactions, hybrid.transactions, whole.onchain_bytes,
              hybrid.onchain_bytes);
}

obs::Json ModelJson(const ModelCost& cost) {
  return obs::Json::Object()
      .Set("miner_gas", obs::Json::Uint(cost.miner_gas))
      .Set("transactions", obs::Json::Int(cost.transactions))
      .Set("onchain_bytes", obs::Json::Uint(cost.onchain_bytes));
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_fig1_models.json");
  flags::ExitOnLeftoverArgs(argc, argv, "[--json <path>|-]");
  std::printf(
      "=== Fig. 1: all-on-chain vs hybrid-on/off-chain execution model ===\n\n");
  std::printf("Workload: deploy + call every function once.\n\n");

  std::printf("--- sweep A: heavy cost per function (3 light + 3 heavy) ---\n");
  std::printf("%-22s %12s %12s %8s %17s %19s\n", "heavy keccak iters",
              "whole gas", "hybrid gas", "ratio", "txs (w/h)", "bytes (w/h)");
  obs::Json sweep_a = obs::Json::Array();
  for (uint64_t iters : {10ull, 100ull, 1000ull, 10000ull, 50000ull}) {
    SyntheticConfig cfg;
    cfg.num_light = 3;
    cfg.num_heavy = 3;
    cfg.heavy_iterations = iters;
    char label[32];
    std::snprintf(label, sizeof(label), "%llu",
                  static_cast<unsigned long long>(iters));
    ModelCost whole = RunWhole(cfg);
    ModelCost hybrid = RunHybrid(cfg);
    PrintRow(label, whole, hybrid);
    sweep_a.Push(obs::Json::Object()
                     .Set("heavy_iterations", obs::Json::Uint(iters))
                     .Set("whole", ModelJson(whole))
                     .Set("hybrid", ModelJson(hybrid)));
  }

  std::printf("\n--- sweep B: number of heavy functions (3 light, 5000 "
              "iters each) ---\n");
  std::printf("%-22s %12s %12s %8s %17s %19s\n", "# heavy functions",
              "whole gas", "hybrid gas", "ratio", "txs (w/h)", "bytes (w/h)");
  obs::Json sweep_b = obs::Json::Array();
  for (int heavy : {1, 2, 4, 8}) {
    SyntheticConfig cfg;
    cfg.num_light = 3;
    cfg.num_heavy = heavy;
    cfg.heavy_iterations = 5000;
    char label[32];
    std::snprintf(label, sizeof(label), "%d", heavy);
    ModelCost whole = RunWhole(cfg);
    ModelCost hybrid = RunHybrid(cfg);
    PrintRow(label, whole, hybrid);
    sweep_b.Push(obs::Json::Object()
                     .Set("num_heavy", obs::Json::Int(heavy))
                     .Set("whole", ModelJson(whole))
                     .Set("hybrid", ModelJson(hybrid)));
  }

  std::printf(
      "\nShape check: hybrid miner gas is flat in the heavy cost (miners\n"
      "never execute f2/f4...), so the whole/hybrid ratio grows with the\n"
      "weight and count of heavy functions — the Fig. 1 story.\n");

  if (!json_path.empty()) {
    obs::Json results = obs::Json::Object();
    results.Set("sweep_heavy_cost", std::move(sweep_a))
        .Set("sweep_heavy_count", std::move(sweep_b));
    Status st = obs::WriteBenchJson(json_path, "fig1_models",
                                    std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
