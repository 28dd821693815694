// Interpreter dispatch benchmark: the same workloads under the reference
// switch loop and threaded dispatch with superinstructions (the default).
//
//   dense:    direct Evm::Call of an arithmetic loop contract — the
//             dispatch-bound worst case where per-instruction overhead
//             dominates (no storage, no memory growth, no sub-calls).
//   protocol: the full Table II dispute flow (deploy, deposits,
//             deployVerifiedInstance with signature checks, dispute
//             re-execution) run through evm::Evm on one WorldState — the
//             paper's actual contract mix, where keccak/storage/sig work
//             dilutes dispatch overhead.
//
// Every row records gas and the post-state root; any divergence from the
// switch reference is a correctness failure (exit 1), so the reported
// speedups are over verified-identical executions.
//
// Writes BENCH_evm_interp.json (onoffchain-bench-v1) via --json <path>.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "contracts/betting.h"
#include "crypto/secp256k1.h"
#include "easm/assembler.h"
#include "evm/evm.h"
#include "obs/export.h"
#include "state/world_state.h"
#include "support/flags.h"

using namespace onoff;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Dense workload
// ---------------------------------------------------------------------------

// An accumulator loop: ~18 cheap ops per iteration, no checkpoints inside
// the loop body except the fused JUMPI back-edge. Returns the accumulator,
// so the output hash pins the whole computation.
Bytes DenseLoopRuntime(uint64_t iterations) {
  char iters_hex[16];
  std::snprintf(iters_hex, sizeof iters_hex, "%04llx",
                static_cast<unsigned long long>(iterations));
  std::string src = std::string("PUSH1 0x00\nPUSH2 0x") + iters_hex + R"(
    loop: JUMPDEST
    DUP1 DUP1 MUL
    DUP3 ADD
    SWAP2 POP
    DUP1 PUSH1 0x0f SHR POP
    PUSH1 0x01 SWAP1 SUB
    DUP1 PUSH @loop JUMPI
    POP
    PUSH1 0x00 MSTORE
    PUSH1 0x20 PUSH1 0x00 RETURN
  )";
  auto code = easm::Assemble(src);
  if (!code.ok()) {
    std::fprintf(stderr, "dense contract assembly failed\n");
    std::exit(1);
  }
  return *code;
}

struct DenseResult {
  double wall_ms = 0;
  double mgas_per_s = 0;
  uint64_t gas_used = 0;
  Bytes output;
  Hash32 root{};
};

DenseResult RunDense(evm::DispatchMode mode, const Bytes& runtime,
                     uint64_t calls) {
  state::WorldState world;
  Address contract = Address::FromWord(U256(0xd15a));
  Address sender = Address::FromWord(U256(0xaa));
  world.CreateAccount(sender);
  world.AddBalance(sender, U256(1'000'000'000));
  world.SetCode(contract, runtime);
  world.ClearJournal();

  evm::Evm vm(&world, evm::BlockContext{}, evm::TxContext{sender, U256(1)});
  vm.set_dispatch_mode(mode);
  evm::CallMessage msg;
  msg.caller = sender;
  msg.to = contract;
  msg.gas = 2'000'000;

  DenseResult r;
  auto one_call = [&] {
    evm::ExecResult res = vm.Call(msg);
    if (!res.ok()) {
      std::fprintf(stderr, "dense call failed: %s\n",
                   evm::OutcomeToString(res.outcome));
      std::exit(1);
    }
    r.gas_used = msg.gas - res.gas_left;
    r.output = res.output;
  };
  for (uint64_t i = 0; i < calls / 8 + 1; ++i) one_call();  // warmup

  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < calls; ++i) one_call();
  r.wall_ms = MsSince(start);
  r.mgas_per_s = r.wall_ms > 0 ? static_cast<double>(r.gas_used * calls) /
                                     (r.wall_ms * 1000.0)
                               : 0.0;
  r.root = world.StateRoot();
  return r;
}

// ---------------------------------------------------------------------------
// Protocol workload (the Table II dispute flow)
// ---------------------------------------------------------------------------

struct ProtocolResult {
  double wall_ms = 0;
  uint64_t total_gas = 0;
  Hash32 root{};
};

ProtocolResult RunProtocolOnce(evm::DispatchMode mode) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");

  state::WorldState world;
  for (const auto* key : {&alice, &bob}) {
    world.CreateAccount(key->EthAddress());
    world.AddBalance(key->EthAddress(), contracts::Ether(10));
  }
  world.ClearJournal();

  const uint64_t now = 1'550'000'000;
  contracts::BettingConfig betting;
  betting.alice = alice.EthAddress();
  betting.bob = bob.EthAddress();
  betting.deposit_amount = contracts::Ether(1);
  betting.t1 = now + 100;
  betting.t2 = now + 200;
  betting.t3 = now + 300;

  contracts::OffchainConfig offchain;
  offchain.alice = alice.EthAddress();
  offchain.bob = bob.EthAddress();
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 2000;

  auto onchain_init = contracts::BuildOnChainInit(betting);
  auto offchain_init = contracts::BuildOffChainInit(offchain);
  if (!onchain_init.ok() || !offchain_init.ok()) {
    std::fprintf(stderr, "betting contract generation failed\n");
    std::exit(1);
  }

  // One Evm per step, at that step's block time, all on `world`.
  auto vm_at = [&](uint64_t timestamp, const Address& origin) {
    evm::BlockContext block;
    block.timestamp = timestamp;
    evm::Evm vm(&world, block, evm::TxContext{origin, U256(1)});
    vm.set_dispatch_mode(mode);
    return vm;
  };
  uint64_t gas = 0;
  auto charge = [&](const char* step, uint64_t gas_limit,
                    const evm::ExecResult& res) {
    if (!res.ok()) {
      std::fprintf(stderr, "protocol step %s failed: %s\n", step,
                   evm::OutcomeToString(res.outcome));
      std::exit(1);
    }
    gas += gas_limit - res.gas_left;
  };
  auto call = [&](const char* step, uint64_t timestamp, const Address& from,
                  const Address& to, const U256& value, Bytes data,
                  uint64_t gas_limit) {
    evm::CallMessage msg;
    msg.caller = from;
    msg.to = to;
    msg.value = value;
    msg.data = std::move(data);
    msg.gas = gas_limit;
    charge(step, gas_limit, vm_at(timestamp, from).Call(msg));
  };

  ProtocolResult r;
  auto start = std::chrono::steady_clock::now();

  evm::ExecResult deploy = vm_at(now, alice.EthAddress())
                               .Create(alice.EthAddress(), U256(),
                                       *onchain_init, 4'000'000);
  charge("deploy", 4'000'000, deploy);
  Address onchain = deploy.created;

  call("deposit", now, alice.EthAddress(), onchain, contracts::Ether(1),
       contracts::DepositCalldata(), 300'000);
  call("deposit", now, bob.EthAddress(), onchain, contracts::Ether(1),
       contracts::DepositCalldata(), 300'000);

  Hash32 digest = Keccak256(*offchain_init);
  auto sig_a = secp256k1::Sign(digest, alice);
  auto sig_b = secp256k1::Sign(digest, bob);
  if (!sig_a.ok() || !sig_b.ok()) std::exit(1);
  call("deployVerifiedInstance", betting.t3, bob.EthAddress(), onchain,
       U256(),
       contracts::DeployVerifiedInstanceCalldata(
           *offchain_init, sig_a->v, sig_a->r, sig_a->s, sig_b->v, sig_b->r,
           sig_b->s),
       7'000'000);

  Address instance = Address::FromWord(world.GetStorage(
      onchain, U256(contracts::betting_slots::kDeployedAddr)));
  call("returnDisputeResolution", betting.t3, bob.EthAddress(), instance,
       U256(), contracts::ReturnDisputeResolutionCalldata(onchain),
       7'000'000);

  r.wall_ms = MsSince(start);
  r.total_gas = gas;
  r.root = world.StateRoot();
  return r;
}

ProtocolResult RunProtocol(evm::DispatchMode mode, int reps) {
  ProtocolResult best;
  for (int i = 0; i < reps; ++i) {
    ProtocolResult r = RunProtocolOnce(mode);
    if (i == 0 || r.wall_ms < best.wall_ms) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_evm_interp.json");
  uint64_t dense_calls = flags::U64FlagFromArgs(&argc, argv, "calls", 60);
  uint64_t dense_iters = 0x2000;
  int protocol_reps =
      static_cast<int>(flags::U64FlagFromArgs(&argc, argv, "reps", 3));
  flags::ExitOnLeftoverArgs(argc, argv,
                            "[--calls N] [--reps N] [--json <path>|-]");

  struct ModeRow {
    const char* name;
    evm::DispatchMode mode;
  };
  const ModeRow modes[] = {
      {"switch", evm::DispatchMode::kSwitch},
      {"threaded", evm::DispatchMode::kThreaded},
  };

  obs::Json rows = obs::Json::Array();
  bool all_roots_match = true;

  // ---- dense ----
  Bytes runtime = DenseLoopRuntime(dense_iters);
  std::printf("=== EVM interpreter dispatch: dense loop, %llu calls/mode ===\n\n",
              static_cast<unsigned long long>(dense_calls));
  std::printf("%-18s %12s %12s %12s %10s %8s\n", "mode", "wall (ms)",
              "Mgas/s", "gas/call", "speedup", "roots");

  DenseResult dense_ref;
  for (const ModeRow& m : modes) {
    DenseResult r = RunDense(m.mode, runtime, dense_calls);
    if (m.mode == evm::DispatchMode::kSwitch) dense_ref = r;
    bool match = r.gas_used == dense_ref.gas_used &&
                 r.output == dense_ref.output && r.root == dense_ref.root;
    all_roots_match = all_roots_match && match;
    double speedup = r.wall_ms > 0 ? dense_ref.wall_ms / r.wall_ms : 0.0;
    std::printf("%-18s %12.1f %12.1f %12llu %9.2fx %8s\n", m.name, r.wall_ms,
                r.mgas_per_s, static_cast<unsigned long long>(r.gas_used),
                speedup, match ? "ok" : "DIFF");
    rows.Push(obs::Json::Object()
                  .Set("workload", obs::Json::Str("dense"))
                  .Set("mode", obs::Json::Str(m.name))
                  .Set("calls", obs::Json::Uint(dense_calls))
                  .Set("wall_ms", obs::Json::Num(r.wall_ms))
                  .Set("mgas_per_s", obs::Json::Num(r.mgas_per_s))
                  .Set("gas_per_call", obs::Json::Uint(r.gas_used))
                  .Set("speedup_vs_switch", obs::Json::Num(speedup))
                  .Set("roots_match", obs::Json::Bool(match)));
  }

  // ---- protocol ----
  std::printf(
      "\n=== Table II dispute flow (reveal_iterations=2000), best of %d ===\n\n",
      protocol_reps);
  std::printf("%-18s %12s %14s %10s %8s\n", "mode", "wall (ms)", "total gas",
              "speedup", "roots");
  ProtocolResult proto_ref;
  for (const ModeRow& m : modes) {
    ProtocolResult r = RunProtocol(m.mode, protocol_reps);
    if (m.mode == evm::DispatchMode::kSwitch) proto_ref = r;
    bool match = r.total_gas == proto_ref.total_gas && r.root == proto_ref.root;
    all_roots_match = all_roots_match && match;
    double speedup = r.wall_ms > 0 ? proto_ref.wall_ms / r.wall_ms : 0.0;
    std::printf("%-18s %12.1f %14llu %9.2fx %8s\n", m.name, r.wall_ms,
                static_cast<unsigned long long>(r.total_gas), speedup,
                match ? "ok" : "DIFF");
    rows.Push(obs::Json::Object()
                  .Set("workload", obs::Json::Str("protocol"))
                  .Set("mode", obs::Json::Str(m.name))
                  .Set("wall_ms", obs::Json::Num(r.wall_ms))
                  .Set("total_gas", obs::Json::Uint(r.total_gas))
                  .Set("speedup_vs_switch", obs::Json::Num(speedup))
                  .Set("roots_match", obs::Json::Bool(match)));
  }

  if (!json_path.empty()) {
    Status st = obs::WriteBenchJson(json_path, "evm_interp", std::move(rows));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (!all_roots_match) {
    std::fprintf(stderr,
                 "FAIL: dispatch modes diverged (gas/output/state root)\n");
    return 1;
  }
  return 0;
}
