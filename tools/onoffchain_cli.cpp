// onoffchain command-line utility: the participants' offline steps.
//
//   onoffchain_cli keygen <seed>             derive a key + address
//   onoffchain_cli selector <signature>      4-byte ABI selector
//   onoffchain_cli keccak <hex|string>       keccak-256 digest
//   onoffchain_cli asm <file.easm>           assemble to hex bytecode
//   onoffchain_cli disasm <hex>              disassemble bytecode
//   onoffchain_cli sign <seed> <hex>         sign keccak256(data) (v,r,s)
//   onoffchain_cli betting <aliceSeed> <bobSeed> [revealIters]
//       generate the paper's on/off-chain betting pair and the signed copy
//   onoffchain_cli lint [--json] <0xhex|file.easm|file|--bundled>
//       run the static analyzer: CFG + stack/jump verification, worst-case
//       gas bounds, effect classification, storage-access and privacy-taint
//       dataflow. Prints pc (and asm line/label for .easm inputs)
//       diagnostics; exits nonzero on any error finding.
//       --bundled lints every contract this repo generates.
//       --json emits the onoffchain-lint-v1 document on stdout instead of
//       text: per-program function summaries (selector, gas bound, effects,
//       storage reads/writes, schedulability) and diagnostics (code, name,
//       severity, pc, line, selector, message). Exit codes are unchanged.
//   onoffchain_cli trace [sim flags] [--chrome-json <path>]
//                        [--trace-json <path>] [--structlog <path>]
//                        [--check-bounds]
//       run the bundled dispute scenario with end-to-end causal tracing: one
//       trace id links message-bus delivery, network hops, tx-pool admission,
//       block inclusion, EVM call frames and settlement. Exports Chrome
//       trace-event JSON (chrome://tracing / ui.perfetto.dev), the
//       onoffchain-trace-v1 span dump, and optionally a per-opcode structLog;
//       --check-bounds verifies each transaction's outermost frame against
//       the static analyzer's gas bound and exits nonzero on a violation.
//   onoffchain_cli health [sim flags] [--trials N] [--timeseries-json <path>]
//                         [--flightrec-json <path>]
//       run N (default 4) sim dispute trials, alternating the optimistic and
//       dispute paths, with the invariant auditor, flight recorder and
//       time-series sampler all on, then print a one-screen health summary
//       (settlements, violations, recorder pressure, latency quantiles).
//       --timeseries-json writes the onoffchain-timeseries-v1 series;
//       --flightrec-json writes an onoffchain-flightrec-v1 triage bundle.
//       Exits nonzero on any invariant violation.
//   onoffchain_cli storage [dbPath] [blocks] [history]
//       mine balance churn into the persistent node store and print its
//       growth, pruning and a historical lookup per block
//
// sim flags: --sim-seed N, --sim-latency-ms N, --sim-jitter-ms N and
// --sim-loss P set the participant->chain links of the simulated network.
//
// Any command additionally accepts the unified JSON output flag
//   --json <path>|-   JSON output path (alias: --metrics-json; '-' skips the
//                     file)
// dumping the process-global metrics registry to <path> in the
// onoffchain-metrics-v1 schema after the command runs (given more than once,
// the tool exits 2 instead of silently keeping the last value); and
// --log-level <trace|debug|info|warn|error|off> to filter the structured
// diagnostics the library layers emit on stderr. An argument a command does
// not understand, or a number that does not parse, exits 2 before the
// command does any work.
//
// Everything runs fully offline against the in-repo substrate.

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "abi/abi.h"
#include "analysis/analyzer.h"
#include "analysis/bounds.h"
#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "contracts/synthetic.h"
#include "crypto/keccak.h"
#include "crypto/secp256k1.h"
#include "easm/assembler.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "onoff/protocol.h"
#include "onoff/signed_copy.h"
#include "sim/flags.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/transport.h"
#include "support/flags.h"
#include "support/log.h"
#include "trace/structlog.h"
#include "trace/trace.h"

using namespace onoff;

namespace {

// Exit status 2: what was not understood (when known), then the usage line.
int Usage(const Status& why = Status::OK()) {
  if (!why.ok()) {
    std::fprintf(stderr, "onoffchain_cli: %s\n", why.message().c_str());
  }
  std::fprintf(stderr,
               "usage: onoffchain_cli "
               "<keygen|selector|keccak|asm|disasm|sign|betting|lint|"
               "trace|health|storage> args...\n");
  return 2;
}

Bytes ParseHexOrText(const std::string& arg) {
  if (arg.rfind("0x", 0) == 0) {
    auto parsed = FromHex(arg);
    if (parsed.ok()) return *parsed;
  }
  return BytesOf(arg);
}

int CmdKeygen(const std::string& seed) {
  auto key = secp256k1::PrivateKey::FromSeed(seed);
  std::printf("seed:        %s\n", seed.c_str());
  std::printf("private key: 0x%s\n", key.scalar().ToHexFull().c_str());
  auto pub = key.PublicKey();
  Bytes compressed = secp256k1::SerializePoint(pub, /*compressed=*/true);
  std::printf("public key:  0x%s\n", ToHex(compressed).c_str());
  std::printf("address:     %s\n", key.EthAddress().ToHex().c_str());
  return 0;
}

int CmdSelector(const std::string& signature) {
  auto sel = abi::SelectorOf(signature);
  std::printf("%s -> 0x%s\n", signature.c_str(),
              ToHex(BytesView(sel.data(), 4)).c_str());
  return 0;
}

int CmdKeccak(const std::string& arg) {
  Hash32 h = Keccak256(ParseHexOrText(arg));
  std::printf("0x%s\n", ToHex(BytesView(h.data(), h.size())).c_str());
  return 0;
}

// The whole file, or nullopt (logged) when it cannot be opened.
std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ONOFF_LOG(log::Level::kError, "cli", "cannot open %s", path.c_str());
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int CmdAsm(const std::string& path) {
  std::optional<std::string> source = ReadFile(path);
  if (!source) return 1;
  auto code = easm::Assemble(*source);
  if (!code.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "%s", code.status().ToString().c_str());
    return 1;
  }
  std::printf("0x%s\n", ToHex(*code).c_str());
  return 0;
}

int CmdDisasm(const std::string& hex) {
  auto code = FromHex(hex);
  if (!code.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "%s", code.status().ToString().c_str());
    return 1;
  }
  std::fputs(easm::Disassemble(*code).c_str(), stdout);
  return 0;
}

int CmdSign(const std::string& seed, const std::string& data_arg) {
  auto key = secp256k1::PrivateKey::FromSeed(seed);
  Bytes data = ParseHexOrText(data_arg);
  Hash32 digest = Keccak256(data);
  auto sig = secp256k1::Sign(digest, key);
  if (!sig.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "%s", sig.status().ToString().c_str());
    return 1;
  }
  std::printf("signer: %s\n", key.EthAddress().ToHex().c_str());
  std::printf("digest: 0x%s\n", ToHex(BytesView(digest.data(), 32)).c_str());
  std::printf("v: %u\nr: 0x%s\ns: 0x%s\n", sig->v, sig->r.ToHexFull().c_str(),
              sig->s.ToHexFull().c_str());
  return 0;
}

// The on-chain contract `betting` and `lint --bundled` generate: a 1-ether
// bet with fixed T1..T3, so the bytecode is reproducible.
contracts::BettingConfig BettingFor(const Address& alice, const Address& bob) {
  contracts::BettingConfig cfg;
  cfg.alice = alice;
  cfg.bob = bob;
  cfg.deposit_amount = contracts::Ether(1);
  cfg.t1 = 1'000'000'100;
  cfg.t2 = 1'000'000'200;
  cfg.t3 = 1'000'000'300;
  return cfg;
}

int CmdBetting(const std::string& alice_seed, const std::string& bob_seed,
               uint64_t reveal_iters) {
  auto alice = secp256k1::PrivateKey::FromSeed(alice_seed);
  auto bob = secp256k1::PrivateKey::FromSeed(bob_seed);
  contracts::BettingConfig cfg =
      BettingFor(alice.EthAddress(), bob.EthAddress());

  contracts::OffchainConfig off;
  off.alice = cfg.alice;
  off.bob = cfg.bob;
  off.secret_alice = U256(0xa11ce);
  off.secret_bob = U256(0xb0b);
  off.reveal_iterations = reveal_iters;

  auto onchain = contracts::BuildOnChainInit(cfg);
  auto offchain = contracts::BuildOffChainInit(off);
  if (!onchain.ok() || !offchain.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "generation failed");
    return 1;
  }
  std::printf("participants: %s (alice), %s (bob)\n", cfg.alice.ToHex().c_str(),
              cfg.bob.ToHex().c_str());
  std::printf("on-chain init  (%4zu bytes): 0x%s\n", onchain->size(),
              ToHex(*onchain).c_str());
  std::printf("off-chain init (%4zu bytes): 0x%s\n", offchain->size(),
              ToHex(*offchain).c_str());

  core::SignedCopy copy(*offchain);
  Status audit_a = copy.AddSignature(alice);
  Status audit_b = copy.AddSignature(bob);
  if (!audit_a.ok() || !audit_b.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "pre-signing audit refused: %s",
              (audit_a.ok() ? audit_b : audit_a).ToString().c_str());
    return 1;
  }
  Hash32 digest = copy.BytecodeHash();
  std::printf("bytecode hash: 0x%s\n",
              ToHex(BytesView(digest.data(), 32)).c_str());
  std::printf("signed copy (%zu bytes RLP): both signatures verify: %s\n",
              copy.Serialize().size(),
              copy.VerifyComplete({cfg.alice, cfg.bob}).ok() ? "yes" : "NO");
  std::printf("native reveal(): winner = %s\n",
              contracts::ComputeWinner(off) ? "bob" : "alice");
  return 0;
}

// ---- lint: one walk, rendered as text or as onoffchain-lint-v1 ----

obs::Json GasBoundJson(const analysis::GasBound& bound) {
  return bound.bounded ? obs::Json::Uint(bound.gas) : obs::Json::Null();
}

obs::Json DiagnosticJson(const analysis::Diagnostic& d,
                         const easm::SourceMap* map) {
  obs::Json j = obs::Json::Object();
  j.Set("code", obs::Json::Str(analysis::DiagCodeId(d.code)));
  j.Set("name", obs::Json::Str(analysis::DiagCodeName(d.code)));
  j.Set("severity",
        obs::Json::Str(analysis::IsError(d.code) ? "error" : "warning"));
  j.Set("pc", obs::Json::Uint(d.pc));
  int line = map != nullptr ? map->LineAt(d.pc) : -1;
  j.Set("line", line >= 0 ? obs::Json::Int(line) : obs::Json::Null());
  j.Set("selector", d.HasSelector()
                        ? obs::Json::Uint(static_cast<uint64_t>(d.selector))
                        : obs::Json::Null());
  j.Set("message", obs::Json::Str(d.message));
  return j;
}

obs::Json AccessJson(const analysis::AccessSummary& access) {
  obs::Json j = obs::Json::Object();
  j.Set("reads", obs::Json::Str(access.reads.ToString()));
  j.Set("writes", obs::Json::Str(access.writes.ToString()));
  j.Set("effects", obs::Json::Str(analysis::EffectsToString(access.effects)));
  j.Set("external_reads", obs::Json::Bool(access.external_reads));
  j.Set("schedulable", obs::Json::Bool(access.StaticallySchedulable()));
  return j;
}

// One pass over each deployment's programs, their functions and their
// diagnostics, printed as text or collected into the onoffchain-lint-v1
// document; Finish() ends the walk.
class LintWalk {
 public:
  explicit LintWalk(bool json) : json_(json) {}

  // A deployment is its deployer prologue and its runtime when a
  // recognised deployer wraps it, else one program.
  void Deployment(const std::string& title, BytesView init_code,
                  const analysis::AnalysisOptions& options) {
    analysis::DeploymentReport report =
        analysis::AnalyzeDeployment(init_code, options);
    if (!report.recognized_deployer) {
      Program(title, report.init);
      return;
    }
    Program(title + " [deployer prologue]", report.init);
    Program(title + " [runtime]", *report.runtime);
    if (!json_) {
      std::printf("  deploy bound (incl. code deposit): %s\n",
                  report.DeployGasBound().ToString().c_str());
    }
  }

  void Program(const std::string& title,
               const analysis::AnalysisReport& report,
               const easm::SourceMap* map = nullptr) {
    if (!json_) {
      std::printf("%s: %zu bytes, %zu blocks, %zu edges, program bound %s\n",
                  title.c_str(), report.code_size, report.cfg.blocks.size(),
                  report.cfg.EdgeCount(),
                  report.program_bound.ToString().c_str());
    }
    obs::Json fns = obs::Json::Array();
    for (const analysis::FunctionReport& fn : report.functions) {
      if (!json_) {
        std::printf("  fn %-44s entry 0x%04x gas <= %-10s%s\n",
                    fn.name.c_str(), fn.entry_pc,
                    fn.gas_bound.ToString().c_str(),
                    fn.has_loop ? "  (loop)" : "");
        continue;
      }
      obs::Json f = obs::Json::Object();
      f.Set("selector", obs::Json::Uint(fn.selector));
      f.Set("name", obs::Json::Str(fn.name));
      f.Set("entry_pc", obs::Json::Uint(fn.entry_pc));
      f.Set("gas_bound", GasBoundJson(fn.gas_bound));
      f.Set("has_loop", obs::Json::Bool(fn.has_loop));
      f.Set("access", AccessJson(fn.access));
      fns.Push(std::move(f));
    }
    int errors = 0;
    obs::Json diags = obs::Json::Array();
    for (const analysis::Diagnostic& d : report.diagnostics) {
      if (analysis::IsError(d.code)) ++errors;
      if (json_) {
        diags.Push(DiagnosticJson(d, map));
      } else {
        std::printf("  %s\n", analysis::FormatDiagnostic(d, map).c_str());
      }
    }
    errors_ += errors;
    if (!json_) return;
    obs::Json j = obs::Json::Object();
    j.Set("title", obs::Json::Str(title));
    j.Set("code_size", obs::Json::Uint(report.code_size));
    j.Set("blocks", obs::Json::Uint(report.cfg.blocks.size()));
    j.Set("edges", obs::Json::Uint(report.cfg.EdgeCount()));
    j.Set("gas_bound", GasBoundJson(report.program_bound));
    j.Set("access", AccessJson(report.program_access));
    j.Set("functions", std::move(fns));
    j.Set("diagnostics", std::move(diags));
    j.Set("errors", obs::Json::Int(errors));
    programs_.Push(std::move(j));
  }

  // Prints the JSON document, or in text the `summary` error count line
  // when asked; the exit status is nonzero on any error finding.
  int Finish(bool summary) {
    if (json_) {
      obs::Json doc = obs::Json::Object();
      doc.Set("schema", obs::Json::Str("onoffchain-lint-v1"));
      doc.Set("programs", std::move(programs_));
      doc.Set("errors", obs::Json::Int(errors_));
      std::printf("%s\n", doc.Dump().c_str());
    } else if (summary) {
      std::printf("%d error(s) across bundled contracts\n", errors_);
    }
    return errors_ == 0 ? 0 : 1;
  }

 private:
  bool json_;
  int errors_ = 0;
  obs::Json programs_ = obs::Json::Array();
};

int LintBundled(LintWalk& lint) {
  contracts::BettingConfig cfg =
      BettingFor(secp256k1::PrivateKey::FromSeed("alice").EthAddress(),
                 secp256k1::PrivateKey::FromSeed("bob").EthAddress());
  contracts::OffchainConfig off;
  off.alice = cfg.alice;
  off.bob = cfg.bob;
  off.reveal_iterations = 10;
  auto betting_on = contracts::BuildOnChainInit(cfg);
  auto betting_off = contracts::BuildOffChainInit(off);
  if (!betting_on.ok() || !betting_off.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "betting generation failed");
    return 1;
  }
  lint.Deployment("betting on-chain", *betting_on, contracts::OnChainPolicy());
  lint.Deployment("betting off-chain", *betting_off,
                  contracts::OffChainPolicy());

  contracts::SyntheticConfig synth;
  auto whole = contracts::BuildWholeInit(synth);
  auto hybrid_on = contracts::BuildHybridOnChainInit(synth);
  auto hybrid_off = contracts::BuildHybridOffChainInit(synth);
  if (!whole.ok() || !hybrid_on.ok() || !hybrid_off.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "synthetic generation failed");
    return 1;
  }
  lint.Deployment("synthetic whole", *whole, {});
  lint.Deployment("synthetic hybrid on-chain", *hybrid_on, {});
  lint.Deployment("synthetic hybrid off-chain", *hybrid_off, {});
  return lint.Finish(/*summary=*/true);
}

int CmdLint(int argc, char** argv) {
  LintWalk lint(flags::SwitchFromArgs(&argc, argv, "json"));
  const bool bundled = flags::SwitchFromArgs(&argc, argv, "bundled");
  if (Status st = flags::LeftoverArgs(argc, argv, bundled ? 0 : 1); !st.ok()) {
    return Usage(st);
  }
  if (bundled) return LintBundled(lint);
  if (argc != 2) return Usage();
  const std::string arg = argv[1];

  // .easm files are assembled with a source map so diagnostics carry
  // line/label positions; everything else is hex (inline or in a file).
  if (arg.size() > 5 && arg.rfind(".easm") == arg.size() - 5) {
    std::optional<std::string> source = ReadFile(arg);
    if (!source) return 1;
    easm::SourceMap map;
    auto code = easm::AssembleWithMap(*source, &map);
    if (!code.ok()) {
      ONOFF_LOG(log::Level::kError, "cli", "%s", code.status().ToString().c_str());
      return 1;
    }
    lint.Program(arg, analysis::AnalyzeProgram(*code), &map);
    return lint.Finish(/*summary=*/false);
  }

  std::string hex = arg;
  if (hex.rfind("0x", 0) != 0) {
    std::optional<std::string> text = ReadFile(arg);
    if (!text) return 1;
    hex = *text;
    while (!hex.empty() && (hex.back() == '\n' || hex.back() == '\r' ||
                            hex.back() == ' ')) {
      hex.pop_back();
    }
  }
  auto code = FromHex(hex);
  if (!code.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "%s", code.status().ToString().c_str());
    return 1;
  }
  lint.Deployment(arg, *code, {});
  return lint.Finish(/*summary=*/false);
}

// ---- trace and health: the simulated dispute ----

// The bet `trace` and `health` run: alice and bob (funded by the caller)
// stake 1 ether on a 20-iteration reveal over a fresh simulated network
// seeded with `transport_seed`, both behaving as `behavior`. `net`'s
// latency, jitter and loss apply to the participant->chain links only (the
// race the dispute path cares about); the off-chain bus keeps identity
// links so every run reaches the dispute stage instead of aborting unsigned.
Result<core::ProtocolReport> RunSimBet(chain::Blockchain* chain,
                                       const secp256k1::PrivateKey& alice,
                                       const secp256k1::PrivateKey& bob,
                                       const sim::SimFlags& net,
                                       uint64_t transport_seed,
                                       const core::Behavior& behavior) {
  core::MessageBus bus;
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 20;

  sim::Scheduler sched;
  sim::SimTransport transport(&sched, transport_seed);
  sim::LinkConfig link;
  link.latency_ms = net.latency_ms;
  link.jitter_ms = net.jitter_ms;
  link.loss = net.loss;
  transport.SetLink(alice.EthAddress().ToHex(), "chain", link);
  transport.SetLink(bob.EthAddress().ToHex(), "chain", link);

  core::BettingProtocol protocol(chain, &bus, alice, bob, offchain,
                                 contracts::Ether(1));
  protocol.BindSimulation(&sched, &transport);
  return protocol.Run(behavior, behavior);
}

int CmdHealth(int argc, char** argv) {
  const sim::SimFlags net = sim::SimFlagsFromArgs(&argc, argv);
  const uint64_t trials = flags::U64FlagFromArgs(&argc, argv, "trials", 4);
  std::string timeseries_json;
  std::string flightrec_json;
  flags::StringFlagFromArgs(&argc, argv, "timeseries-json", &timeseries_json);
  flags::StringFlagFromArgs(&argc, argv, "flightrec-json", &flightrec_json);
  if (Status st = flags::LeftoverArgs(argc, argv); !st.ok()) return Usage(st);

  // One chain across every trial, with all three observability subsystems
  // on: the auditor watches each block and settlement, the chain-owned
  // flight recorder captures the event stream, and the sampler snapshots
  // the registry at block commits on the virtual clock.
  chain::ChainConfig config;
  config.audit_invariants = "all";
  config.flight_recorder_events = 4096;
  config.timeseries_interval_ms = 200;
  chain::Blockchain chain(config);

  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain.FundAccount(alice.EthAddress(), contracts::Ether(1000));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(1000));

  std::map<std::string, uint64_t> settlements;
  uint64_t run_failures = 0;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    uint64_t state = net.seed;
    (void)sim::SplitMix64(&state);
    state ^= trial;
    // Alternate the optimistic and dispute paths so both settlement
    // boundaries (and both invariant families) exercise.
    core::Behavior behavior;
    behavior.admit_loss = trial % 2 == 0;
    auto report = RunSimBet(&chain, alice, bob, net, sim::SplitMix64(&state),
                            behavior);
    if (!report.ok()) {
      ++run_failures;
      ONOFF_LOG(log::Level::kWarn, "cli", "health trial %llu failed: %s",
                static_cast<unsigned long long>(trial),
                report.status().ToString().c_str());
      continue;
    }
    ++settlements[core::SettlementName(report->settlement)];
  }

  std::printf("=== onoffchain health ===\n");
  std::printf("workload: %llu sim dispute trials (seed=%llu latency=%llums "
              "jitter=%llums loss=%.2f), %llu failed\n",
              static_cast<unsigned long long>(trials),
              static_cast<unsigned long long>(net.seed),
              static_cast<unsigned long long>(net.latency_ms),
              static_cast<unsigned long long>(net.jitter_ms), net.loss,
              static_cast<unsigned long long>(run_failures));
  std::printf("settlements:");
  for (const auto& [name, count] : settlements) {
    std::printf(" %s=%llu", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\n");
  std::printf("chain: height %llu, %llu gas paid, %zu txs pending\n",
              static_cast<unsigned long long>(chain.Height()),
              static_cast<unsigned long long>(chain.TotalGasUsed()),
              chain.PendingCount());

  const chain::ChainAuditor* auditor = chain.auditor();
  uint64_t violations = auditor != nullptr ? auditor->violations() : 0;
  std::printf("auditor: %zu invariants armed, %llu violations  [%s]\n",
              auditor != nullptr ? auditor->invariant_count() : 0,
              static_cast<unsigned long long>(violations),
              violations == 0 ? "OK" : "FAIL");
  if (auditor != nullptr) {
    for (const obs::ViolationReport& report :
         chain.auditor()->sink().Reports()) {
      std::printf("  violation: %s\n", report.ToString().c_str());
    }
  }

  obs::FlightRecorder* recorder = obs::FlightRecorder::Global();
  if (recorder != nullptr) {
    std::printf("flight recorder: %llu events recorded, %llu overwritten "
                "(ring %zu)\n",
                static_cast<unsigned long long>(recorder->events_recorded()),
                static_cast<unsigned long long>(recorder->events_dropped()),
                recorder->config().capacity);
  }

  const obs::TimeseriesSampler* series = chain.timeseries();
  if (series != nullptr && series->samples() > 0) {
    std::printf("timeseries: %zu samples @ %llums virtual",
                series->samples(),
                static_cast<unsigned long long>(
                    chain.config().timeseries_interval_ms));
    if (auto blocks = series->LatestCounter("chain.blocks_mined")) {
      std::printf(", blocks_mined=%llu",
                  static_cast<unsigned long long>(*blocks));
    }
    if (auto p99 = series->LatestQuantile("chain.mine_block_us", 0.99)) {
      std::printf(", mine_block p99=%.0fus", *p99);
    }
    std::printf("\n");
  } else {
    std::printf("timeseries: no samples (metrics disabled?)\n");
  }

  int rc = violations == 0 && run_failures == 0 ? 0 : 1;
  if (!timeseries_json.empty()) {
    if (series == nullptr) {
      ONOFF_LOG(log::Level::kWarn, "cli",
                "timeseries sampler is off; not writing %s",
                timeseries_json.c_str());
    } else {
      Status st = series->WriteJsonFile(timeseries_json);
      if (!st.ok()) {
        ONOFF_LOG(log::Level::kError, "cli", "%s", st.ToString().c_str());
        rc = 1;
      }
    }
  }
  if (!flightrec_json.empty() && recorder != nullptr) {
    Status st = recorder->DumpTriageBundle(flightrec_json,
                                           "health-export", nullptr);
    if (!st.ok()) {
      ONOFF_LOG(log::Level::kError, "cli", "%s", st.ToString().c_str());
      rc = 1;
    }
  }
  return rc;
}

int WriteJsonFile(const obs::Json& json, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    ONOFF_LOG(log::Level::kError, "cli", "cannot open %s for writing",
              path.c_str());
    return 1;
  }
  out << json.Dump(/*pretty=*/true) << '\n';
  return out.good() ? 0 : 1;
}

// Indented causal tree of one trace's spans, roots first.
void PrintSpanTree(const std::vector<trace::Span>& spans) {
  std::map<uint64_t, std::vector<const trace::Span*>> children;
  for (const trace::Span& s : spans) children[s.parent_span_id].push_back(&s);
  std::function<void(uint64_t, int)> walk = [&](uint64_t parent, int depth) {
    auto it = children.find(parent);
    if (it == children.end()) return;
    for (const trace::Span* s : it->second) {
      std::string line(static_cast<size_t>(depth) * 2, ' ');
      line += s->instant ? "* " : "- ";
      line += s->name;
      std::printf("%-48s %10llu us", line.c_str(),
                  static_cast<unsigned long long>(s->start_us));
      if (!s->instant) {
        std::printf("  +%llu us", static_cast<unsigned long long>(s->dur_us));
      }
      for (const auto& [key, value] : s->args) {
        std::string shown = value;
        if (shown.size() > 18) shown = shown.substr(0, 18) + "..";
        std::printf("  %s=%s", key.c_str(), shown.c_str());
      }
      std::printf("\n");
      walk(s->span_id, depth + 1);
    }
  };
  walk(0, 0);
}

int CmdTrace(int argc, char** argv) {
  const sim::SimFlags net = sim::SimFlagsFromArgs(&argc, argv);
  std::string chrome_json;
  std::string trace_json;
  std::string structlog_json;
  flags::StringFlagFromArgs(&argc, argv, "chrome-json", &chrome_json);
  flags::StringFlagFromArgs(&argc, argv, "trace-json", &trace_json);
  flags::StringFlagFromArgs(&argc, argv, "structlog", &structlog_json);
  const bool check_bounds = flags::SwitchFromArgs(&argc, argv, "check-bounds");
  if (Status st = flags::LeftoverArgs(argc, argv); !st.ok()) return Usage(st);

  trace::Tracer tracer;
  trace::Tracer* previous = trace::Tracer::InstallGlobal(&tracer);
  trace::StructLogTracer structlog;
  evm::TraceHook* step_tracer = structlog_json.empty() ? nullptr : &structlog;
  analysis::GasBoundsChecker bounds({}, step_tracer);
  if (check_bounds) step_tracer = &bounds;

  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
  chain.set_step_tracer(step_tracer);

  uint64_t state = net.seed;
  core::Behavior dishonest;
  dishonest.admit_loss = false;
  auto report = RunSimBet(&chain, alice, bob, net, sim::SplitMix64(&state),
                          dishonest);
  trace::Tracer::InstallGlobal(previous);
  if (!report.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "traced run failed: %s",
              report.status().ToString().c_str());
    return 1;
  }

  std::printf("traced dispute run: settlement=%s payout=%s gas=%llu\n",
              core::SettlementName(report->settlement),
              report->correct_payout ? "correct" : "WRONG",
              static_cast<unsigned long long>(report->TotalGas()));
  std::printf("spans: %llu completed, %llu dropped (ring %zu), traces: %llu\n",
              static_cast<unsigned long long>(tracer.spans_completed()),
              static_cast<unsigned long long>(tracer.spans_dropped()),
              tracer.config().ring_capacity,
              static_cast<unsigned long long>(tracer.traces_started()));

  std::vector<trace::Span> spans = tracer.Snapshot();
  std::printf("\nspan tree (virtual time):\n");
  PrintSpanTree(spans);

  std::printf("\nreceipts:\n");
  for (const chain::Block& block : chain.blocks()) {
    for (const chain::Transaction& tx : block.transactions) {
      auto receipt = chain.GetReceipt(tx.Hash());
      if (receipt.ok()) std::printf("%s\n", DescribeReceipt(*receipt).c_str());
    }
  }

  int rc = 0;
  if (!trace_json.empty()) {
    rc |= WriteJsonFile(tracer.ToJson(), trace_json);
  }
  if (!chrome_json.empty()) {
    rc |= WriteJsonFile(tracer.ToChromeTrace(), chrome_json);
  }
  if (!structlog_json.empty()) {
    std::printf("structLog: %llu steps (%llu dropped), %zu frames\n",
                static_cast<unsigned long long>(structlog.steps_seen()),
                static_cast<unsigned long long>(structlog.records_dropped()),
                structlog.frames().size());
    rc |= WriteJsonFile(structlog.ToJson(), structlog_json);
  }
  if (check_bounds) {
    std::printf("gas bounds: %llu checks, %llu violations\n",
                static_cast<unsigned long long>(bounds.checks()),
                static_cast<unsigned long long>(bounds.violations()));
    if (bounds.violations() > 0) rc = 1;
  }
  return rc;
}

// The persistent authenticated state store: mines `blocks` blocks of
// balance churn with persistence into `db_path`, prints the node-store
// growth per block, and demonstrates a historical lookup against a
// pruned-out vs retained root. Run it twice on the same path to see the
// log replay restore the store.
int CmdStorage(const std::string& db_path, uint64_t blocks,
               uint64_t history) {
  chain::ChainConfig config;
  config.persist_state = true;
  config.state_db_path = db_path;
  config.state_history_blocks = history;
  chain::Blockchain bc(config);
  if (bc.node_store() == nullptr) {
    std::fprintf(stderr, "node store failed to open at %s\n", db_path.c_str());
    return 1;
  }
  std::printf("node store: %s (replayed %zu live nodes, %zu roots)\n",
              db_path.empty() ? "<in-memory>" : db_path.c_str(),
              bc.node_store()->live_nodes(), bc.node_store()->retained_roots());

  auto alice = secp256k1::PrivateKey::FromSeed("storage-alice");
  bc.FundAccount(alice.EthAddress(), contracts::Ether(1000));
  std::vector<Hash32> roots;
  std::printf("%6s %12s %12s %12s %10s\n", "block", "live nodes", "roots",
              "pruned", "log bytes");
  for (uint64_t b = 0; b < blocks; ++b) {
    auto hash = bc.SendTransaction(
        alice, secp256k1::PrivateKey::FromSeed("b" + std::to_string(b))
                   .EthAddress(),
        U256(1), {}, 21'000);
    if (!hash.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   hash.status().ToString().c_str());
      return 1;
    }
    roots.push_back(bc.MineBlock().header.state_root);
    std::printf("%6llu %12zu %12zu %12llu %10llu\n",
                static_cast<unsigned long long>(bc.Height()),
                bc.node_store()->live_nodes(),
                bc.node_store()->retained_roots(),
                static_cast<unsigned long long>(
                    bc.node_store()->pruned_total()),
                static_cast<unsigned long long>(bc.node_store()->file_bytes()));
  }

  // Historical read: the sender's account under the newest retained root.
  auto current = bc.node_store()->LookupSecure(roots.back(),
                                               alice.EthAddress().view());
  if (!current.ok() || !current->has_value()) {
    std::fprintf(stderr, "historical lookup under latest root failed\n");
    return 1;
  }
  std::printf("latest root %s: account record %zu bytes\n",
              ToHex0x(BytesView(roots.back().data(), 8)).c_str(),
              (*current)->size());
  if (roots.size() > history) {
    bool pruned_gone = !bc.node_store()->LookupSecure(
        roots.front(), alice.EthAddress().view()).ok();
    std::printf("oldest root %s: %s (outside the %llu-block window)\n",
                ToHex0x(BytesView(roots.front().data(), 8)).c_str(),
                pruned_gone ? "pruned" : "still readable",
                static_cast<unsigned long long>(history));
  }
  return 0;
}

// Each subcommand sees argv from its own name on, takes its flags and leaves
// only its operands; anything else is a usage error, caught before the
// command does any work.
int Dispatch(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  --argc;
  ++argv;
  if (cmd == "lint") return CmdLint(argc, argv);
  if (cmd == "trace") return CmdTrace(argc, argv);
  if (cmd == "health") return CmdHealth(argc, argv);
  if (Status st = flags::LeftoverArgs(argc, argv, 3); !st.ok()) {
    return Usage(st);
  }
  const int operands = argc - 1;
  if (cmd == "keygen" && operands == 1) return CmdKeygen(argv[1]);
  if (cmd == "selector" && operands == 1) return CmdSelector(argv[1]);
  if (cmd == "keccak" && operands == 1) return CmdKeccak(argv[1]);
  if (cmd == "asm" && operands == 1) return CmdAsm(argv[1]);
  if (cmd == "disasm" && operands == 1) return CmdDisasm(argv[1]);
  if (cmd == "sign" && operands == 2) return CmdSign(argv[1], argv[2]);
  if (cmd == "betting" && (operands == 2 || operands == 3)) {
    std::optional<uint64_t> iters =
        operands == 3 ? flags::ParseU64(argv[3]) : uint64_t{10};
    if (!iters) return Usage();
    return CmdBetting(argv[1], argv[2], *iters);
  }
  if (cmd == "storage") {
    std::optional<uint64_t> blocks =
        operands >= 2 ? flags::ParseU64(argv[2]) : uint64_t{8};
    std::optional<uint64_t> history =
        operands == 3 ? flags::ParseU64(argv[3]) : uint64_t{4};
    if (!blocks || *blocks == 0 || !history) return Usage();
    return CmdStorage(operands >= 1 ? argv[1] : "", *blocks, *history);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  log::LevelFromArgs(&argc, argv);
  // `lint --json` selects the lint document format; mask it from the
  // generic --json/--metrics-json extraction (which would treat the next
  // argument as the metrics output path). --metrics-json still works.
  bool lint_json = argc >= 3 && std::string_view(argv[1]) == "lint" &&
                   std::string_view(argv[2]) == "--json";
  if (lint_json) argv[2] = const_cast<char*>("--lint-json");
  std::string metrics_path = obs::JsonPathFromArgsOrExit(&argc, argv, "");
  if (lint_json) argv[2] = const_cast<char*>("--json");
  int rc = Dispatch(argc, argv);
  if (!metrics_path.empty()) {
    obs::Registry* registry = obs::Registry::Global();
    if (registry == nullptr) {
      ONOFF_LOG(log::Level::kWarn, "cli", "metrics are disabled; not writing %s",
              metrics_path.c_str());
    } else {
      Status st = registry->WriteJsonFile(metrics_path);
      if (!st.ok()) {
        ONOFF_LOG(log::Level::kError, "cli", "%s", st.ToString().c_str());
        if (rc == 0) rc = 1;
      }
    }
  }
  return rc;
}
