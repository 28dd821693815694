#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/metrics.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors "end_to_end" in BENCHMARK.json; every workload reports each one.
const MetricDef kEndToEnd[] = {
    {"tx_per_s", "tx/s"},
    {"mgas_per_s", "Mgas/s"},
    {"block_ms_p50", "ms"},
    {"block_ms_p90", "ms"},
    {"settle_ms_p50", "ms"},
    {"settle_ms_p99", "ms"},
    {"dispute_settle_ms_p50", "ms"},
    {"gas_per_settlement", "gas"},
    {"onchain_bytes_per_settlement", "B"},
    {"success_rate", "ratio"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Mirrors "per_layer" in BENCHMARK.json. A layer that a workload bypasses
// reads 0 there (README.md maps each metric to the workload that moves it).
const MetricDef kPerLayer[] = {
    {"crypto.recover_us", "us"},
    {"crypto.recover_ops_per_tx", "count"},
    {"rlp.decode_us", "us"},
    {"pool.submit_us_p50", "us"},
    {"pool.submit_us_p90", "us"},
    {"txpool.gap_held_per_block", "count"},
    {"txpool.budget_skipped_per_block", "count"},
    {"chain.txs_deferred_per_block", "count"},
    {"chain.mine_us_p50", "us"},
    {"chain.mine_us_p90", "us"},
    {"chain.apply_us_per_block", "us"},
    {"chain.mine_other_us_per_block", "us"},
    {"storage.commit_us_per_block", "us"},
    {"storage.accounts_committed_per_block", "count"},
    {"storage.trie_nodes_hashed_per_block", "count"},
    {"storage.trie_node_cache_hit_ratio", "ratio"},
    {"storage.nodes_persisted_per_block", "count"},
    {"storage.nodes_pruned_per_block", "count"},
    {"storage.genesis_commit_s", "s"},
    {"audit.violations", "count"},
    {"parallel.speculated_per_block", "count"},
    {"parallel.conflicts_per_block", "count"},
    {"parallel.reexecuted_ratio", "ratio"},
    {"parallel.static_clear_ratio", "ratio"},
    {"parallel.hint_violations", "count"},
    {"parallel.mine_us_small_p50", "us"},
    {"parallel.mine_us_large_p50", "us"},
    {"parallel.speedup_vs_serial", "ratio"},
    {"evm.gas_per_tx", "gas"},
    {"evm.calls_per_tx", "count"},
    {"evm.mgas_per_s", "Mgas/s"},
    {"evm.analysis_cache.hit_ratio", "ratio"},
    {"onoff.stage.split_generate.gas", "gas"},
    {"onoff.stage.split_generate.offchain_bytes", "B"},
    {"onoff.stage.deploy_sign.gas", "gas"},
    {"onoff.stage.deploy_sign.offchain_bytes", "B"},
    {"onoff.stage.submit_challenge.gas", "gas"},
    {"onoff.stage.submit_challenge.offchain_bytes", "B"},
    {"onoff.stage.dispute_resolve.gas", "gas"},
    {"onoff.stage.dispute_resolve.offchain_bytes", "B"},
    {"bus.messages_per_settlement", "count"},
    {"crypto.sign_ops_per_settlement", "count"},
    {"crypto.verify_ops_per_settlement", "count"},
    {"crypto.recover_ops_per_settlement", "count"},
    {"evm.creates_per_settlement", "count"},
    {"analysis.programs_per_settlement", "count"},
    {"analysis.summary_cache.hit_ratio", "ratio"},
    {"chain.blocks_per_settlement", "count"},
    {"onoff.offchain_us_per_settlement", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    {"hardware_threads", "count"},
};

bool Known(const std::string& name) {
  for (const MetricDef& d : kEndToEnd) {
    if (name == d.name) return true;
  }
  for (const MetricDef& d : kPerLayer) {
    if (name == d.name) return true;
  }
  return false;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 10) failures_.push_back(what);
}

void Report::Set(const std::string& name, double value, uint64_t samples) {
  values_[name] = Value{value, samples};
}

int Report::Print(bool trace) const {
  bool complete = true;
  for (const auto& [name, value] : values_) {
    if (!Known(name)) {
      std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
      complete = false;
    }
  }
  std::string metrics;
  auto emit = [&](const MetricDef& def, bool required) {
    auto it = values_.find(def.name);
    double value = it != values_.end() ? it->second.value : 0;
    uint64_t samples = it != values_.end() ? it->second.samples : 0;
    if (!std::isfinite(value)) value = 0;
    // An end-to-end metric reading 0 was not measured: the run is void.
    if (required && !(value > 0)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", def.name);
      complete = false;
    }
    std::printf("  %-44s %18.6f %-7s (n=%llu)\n", def.name, value, def.unit,
                static_cast<unsigned long long>(samples));
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += buf;
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) emit(def, false);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, true);
  }
  for (const std::string& failure : failures_) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }
  bool correct = complete && failed_ == 0 && attempted_ > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder != nullptr && recorder->enabled_ ? recorder
                                                          : nullptr) {
  if (recorder_ == nullptr) return;
  size_t parent = recorder_->open_.empty() ? 0 : recorder_->open_.back() + 1;
  index_ = recorder_->spans_.size();
  recorder_->spans_.push_back(Span{name, NowNs(), 0, parent});
  recorder_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[index_].end_ns = NowNs();
  recorder_->open_.pop_back();
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %zu}}",
                 i == 0 ? "" : ",",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

RegistryDelta::Snap RegistryDelta::Take() {
  Snap snap;
  onoff::obs::Registry* registry = onoff::obs::Registry::Global();
  if (registry == nullptr) return snap;
  onoff::obs::Registry::InstrumentSnapshot s = registry->Snapshot();
  for (const auto& [name, value] : s.counters) snap.counters[name] = value;
  for (const auto& h : s.histograms) snap.histogram_sums[h.name] = h.data.sum;
  return snap;
}

double RegistryDelta::Count(const std::string& counter) const {
  auto get = [&](const Snap& s) {
    auto it = s.counters.find(counter);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  return get(end_) - get(begin_);
}

double RegistryDelta::HistSum(const std::string& histogram) const {
  auto get = [&](const Snap& s) {
    auto it = s.histogram_sums.find(histogram);
    return it == s.histogram_sums.end() ? 0.0 : it->second;
  };
  return get(end_) - get(begin_);
}

void SetRegistryLayers(const RegistryDelta& r, double blocks, double txs,
                       double gas, Report* report) {
  auto per_block = [&](const char* metric, const char* counter) {
    report->Set(metric, Ratio(r.Count(counter), blocks),
                static_cast<uint64_t>(blocks));
  };
  auto n_blocks = static_cast<uint64_t>(blocks);
  auto n_txs = static_cast<uint64_t>(txs);
  report->Set("crypto.recover_ops_per_tx",
              Ratio(r.Count("crypto.recover_ops"), txs), n_txs);
  per_block("txpool.gap_held_per_block", "txpool.gap_held");
  per_block("txpool.budget_skipped_per_block", "txpool.budget_skipped");
  per_block("chain.txs_deferred_per_block", "chain.txs_deferred");
  report->Set("chain.apply_us_per_block",
              Ratio(r.HistSum("chain.apply_tx_us"), blocks), n_blocks);
  report->Set("storage.commit_us_per_block",
              Ratio(r.HistSum("storage.commit_us"), blocks), n_blocks);
  per_block("storage.accounts_committed_per_block",
            "storage.accounts_committed");
  per_block("storage.trie_nodes_hashed_per_block", "storage.trie_nodes_hashed");
  double hits = r.Count("storage.trie_node_cache_hits");
  report->Set("storage.trie_node_cache_hit_ratio",
              Ratio(hits, hits + r.Count("storage.trie_nodes_hashed")),
              n_blocks);
  per_block("storage.nodes_persisted_per_block", "storage.nodes_persisted");
  per_block("storage.nodes_pruned_per_block", "storage.nodes_pruned");
  report->Set("audit.violations", r.Count("audit.violations"), n_blocks);

  double speculated = r.Count("chain.parallel.speculated");
  per_block("parallel.speculated_per_block", "chain.parallel.speculated");
  per_block("parallel.conflicts_per_block", "chain.parallel.conflicts");
  report->Set("parallel.reexecuted_ratio",
              Ratio(r.Count("chain.parallel.reexecuted"), speculated),
              static_cast<uint64_t>(speculated));
  double committed = r.Count("chain.parallel.committed");
  report->Set("parallel.static_clear_ratio",
              Ratio(r.Count("chain.parallel.static_clear"), committed),
              static_cast<uint64_t>(committed));
  report->Set("parallel.hint_violations",
              r.Count("chain.parallel.hint_violations"), n_blocks);

  report->Set("evm.gas_per_tx", Ratio(gas, txs), n_txs);
  report->Set("evm.calls_per_tx", Ratio(r.Count("evm.calls"), txs), n_txs);
  double code_hits = r.Count("evm.analysis_cache.hits");
  report->Set("evm.analysis_cache.hit_ratio",
              Ratio(code_hits, code_hits + r.Count("evm.analysis_cache.misses")),
              n_txs);
  double summary_hits = r.Count("analysis.summary_cache.hits");
  report->Set("analysis.summary_cache.hit_ratio",
              Ratio(summary_hits,
                    summary_hits + r.Count("analysis.summary_cache.misses")),
              n_txs);
  report->Set("hardware_threads", HardwareThreads(), 1);
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

void CpuRotation::MaybeNext() {
  const uint64_t now = NowNs();
  if (cpus_.size() < 2 || now - moved_ns_ < kDwellNs) return;
  moved_ns_ = now;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  // Best effort: a refused move leaves the thread where it is.
  (void)sched_setaffinity(0, sizeof one, &one);
}

unsigned HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace perfbench
