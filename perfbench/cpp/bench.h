// Shared pieces of the end-to-end benchmark: run options, the report every
// workload fills, sample statistics, the in-memory span recorder of the
// traced run, and deltas of the process-global metrics registry.

#ifndef ONOFF_PERFBENCH_BENCH_H_
#define ONOFF_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  // The per-layer run: spans around every call into the program, registry
  // deltas, and the tracing overhead against the untraced blocks of the
  // same run.
  bool trace = false;
  // Small state and few instances, for the benchmark's own test.
  bool tiny = false;
  // Fault injection for the benchmark's own test: "root" corrupts the
  // expected state root, "payout" the expected winner of one settlement.
  // Either must fail the run.
  std::string inject;
  // Where the traced run writes its spans (Chrome trace-viewer JSON).
  std::string trace_out;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The run's correctness tally and its metrics. Metric names and units come
// from the tables in bench.cc, which mirror BENCHMARK.json.
class Report {
 public:
  // One operation that must succeed: a transaction's admission and
  // successful receipt, a block packed as planned, a payout, a root or
  // audit gate.
  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, uint64_t samples);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Prints every metric of the selected set with its sample count, then
  // the one-line JSON result. Returns the process exit code.
  int Print(bool trace) const;

 private:
  struct Value {
    double value = 0;
    uint64_t samples = 0;
  };
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // the first few, for the log
  std::map<std::string, Value> values_;
};

// Spans recorded in memory around the benchmark's calls into each layer
// and written out when the run ends. Recording is switched per block (or
// per settlement), so the untraced blocks of the same run price the
// tracing itself.
class SpanRecorder {
 public:
  class Scope {
   public:
    // A null or disabled recorder makes this a no-op.
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    size_t index_ = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }
  // Durations in µs of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  // Chrome trace-viewer JSON: one complete ("X") event per span; args hold
  // its id and the id of the span that caused it (0 at the root).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    size_t parent;  // index + 1 of the enclosing span, 0 at the root
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// Counter and histogram deltas of obs::Registry::Global() over a window.
// The registry is process-global, so warm-up and oracle replays must fall
// outside Begin()..End().
class RegistryDelta {
 public:
  void Begin() { begin_ = Take(); }
  void End() { end_ = Take(); }
  double Count(const std::string& counter) const;
  double HistSum(const std::string& histogram) const;

 private:
  struct Snap {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> histogram_sums;
  };
  static Snap Take();
  Snap begin_;
  Snap end_;
};

// Per-layer metrics read from a registry window, shared by every workload:
// pool, storage, audit, parallel executor and EVM counters.
void SetRegistryLayers(const RegistryDelta& registry, double blocks,
                       double txs, double gas, Report* report);

double PeakRssMb();
unsigned HardwareThreads();

// Moves the calling thread to the next CPU it may run on, round-robin, at
// most once per kDwellNs. The single-threaded workloads call it between
// blocks (or settlements): on a shared host one CPU can run much slower than
// another for minutes, and visiting every CPU gives each run the same mix of
// them. The dwell keeps the cost of cold caches after a move small.
class CpuRotation {
 public:
  CpuRotation();
  void MaybeNext();

 private:
  static constexpr uint64_t kDwellNs = 200'000'000;
  std::vector<int> cpus_;
  size_t next_ = 0;
  uint64_t moved_ns_ = 0;
};

void RunMixedSerial(const Options& options, Report* report);
void RunComputeParallel(const Options& options, Report* report);
void RunProtocolLifecycle(const Options& options, Report* report);

}  // namespace perfbench

#endif  // ONOFF_PERFBENCH_BENCH_H_
