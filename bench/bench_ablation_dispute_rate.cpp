// Ablation A: expected miner cost of the hybrid model as a function of the
// dispute probability p, against the all-on-chain baseline.
//
// The hybrid model bets on optimism: per settled contract it costs
//   C_hybrid(p) = C_optimistic + p * C_dispute_extra
// while the all-on-chain model always pays for executing reveal() publicly.
// This bench measures C_optimistic, C_dispute_extra and C_all_on_chain for
// several reveal() weights and reports the break-even dispute rate p* —
// where the crossover falls is the design's operating envelope.

#include <cstdio>

#include "bet_run.h"
#include "obs/export.h"
#include "support/flags.h"

using namespace onoff;
using core::Behavior;

namespace {

struct Costs {
  uint64_t optimistic;
  uint64_t disputed;
  uint64_t all_on_chain;
};

uint64_t RunProtocolGas(uint64_t reveal_iterations, bool dispute) {
  Behavior behavior;
  behavior.admit_loss = !dispute;
  return bench::RunBet(reveal_iterations, behavior, behavior).TotalGas();
}

// All-on-chain baseline: the whole contract (escrow + reveal) is public; the
// settlement transaction makes miners execute reveal(). Approximated as the
// optimistic hybrid cost plus one public execution of reveal() — measured by
// deploying the off-chain part publicly and calling getWinner().
uint64_t AllOnChainGas(uint64_t reveal_iterations) {
  bench::PublicOffchainDeploy deploy(reveal_iterations);
  auto call =
      deploy.chain.Execute(deploy.alice, deploy.receipt.contract_address,
                           U256(), contracts::GetWinnerCalldata(), 8'000'000);
  if (!call.ok() || !call->success) std::exit(1);
  uint64_t base = RunProtocolGas(0, /*dispute=*/false);
  // Escrow machinery (base) + public reveal deployment & execution, minus
  // the double-counted trivial reveal in `base` (negligible).
  return base + deploy.receipt.gas_used + call->gas_used;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_ablation_dispute_rate.json");
  flags::ExitOnLeftoverArgs(argc, argv, "[--json <path>|-]");
  std::printf(
      "=== Ablation A: expected gas vs dispute probability ===\n\n");
  std::printf("%-14s %13s %13s %13s %14s\n", "reveal iters", "optimistic",
              "disputed", "all-on-chain", "break-even p*");
  obs::Json rows = obs::Json::Array();
  for (uint64_t iters : {100ull, 1000ull, 5000ull, 20000ull, 50000ull}) {
    Costs c;
    c.optimistic = RunProtocolGas(iters, false);
    c.disputed = RunProtocolGas(iters, true);
    c.all_on_chain = AllOnChainGas(iters);
    double extra = static_cast<double>(c.disputed - c.optimistic);
    double margin = static_cast<double>(c.all_on_chain) -
                    static_cast<double>(c.optimistic);
    double p_star = extra > 0 ? margin / extra : 999;
    std::printf("%-14llu %13llu %13llu %13llu %14.3f\n",
                static_cast<unsigned long long>(iters),
                static_cast<unsigned long long>(c.optimistic),
                static_cast<unsigned long long>(c.disputed),
                static_cast<unsigned long long>(c.all_on_chain),
                p_star);
    rows.Push(obs::Json::Object()
                  .Set("reveal_iterations", obs::Json::Uint(iters))
                  .Set("optimistic_gas", obs::Json::Uint(c.optimistic))
                  .Set("disputed_gas", obs::Json::Uint(c.disputed))
                  .Set("all_on_chain_gas", obs::Json::Uint(c.all_on_chain))
                  .Set("break_even_dispute_rate", obs::Json::Num(p_star)));
  }
  std::printf(
      "\nExpected hybrid cost: E[gas](p) = optimistic + p * (disputed -\n"
      "optimistic). The hybrid model beats all-on-chain whenever the\n"
      "dispute rate stays below p*; p* > 1 means the hybrid wins even if\n"
      "EVERY contract is disputed (the dispute path itself is cheaper than\n"
      "always executing reveal() publicly once deployment is counted).\n");

  std::printf("\n%-14s %13s\n", "dispute p", "E[gas] (20000-iter reveal)");
  uint64_t opt = RunProtocolGas(20000, false);
  uint64_t dis = RunProtocolGas(20000, true);
  obs::Json expected_rows = obs::Json::Array();
  for (double p : {0.0, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    double expected = opt + p * static_cast<double>(dis - opt);
    std::printf("%-14.2f %13.0f\n", p, expected);
    expected_rows.Push(obs::Json::Object()
                           .Set("dispute_rate", obs::Json::Num(p))
                           .Set("expected_gas", obs::Json::Num(expected)));
  }

  if (!json_path.empty()) {
    obs::Json results = obs::Json::Object();
    results.Set("rows", std::move(rows))
        .Set("expected_gas_20000_iter_reveal", std::move(expected_rows));
    Status st = obs::WriteBenchJson(json_path, "ablation_dispute_rate",
                                    std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
