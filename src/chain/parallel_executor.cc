#include "chain/parallel_executor.h"

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "state/speculative_state.h"
#include "trace/trace.h"

namespace onoff::chain {

std::vector<Receipt> ParallelExecutor::ExecuteBlock(
    state::WorldState& state, size_t tx_count, const ExecFn& execute,
    ParallelExecStats* stats, const std::vector<TxAccessHint>* audit_hints) {
  static obs::Counter* waves = obs::GetCounterOrNull("chain.parallel.waves");
  static obs::Counter* speculated =
      obs::GetCounterOrNull("chain.parallel.speculated");
  static obs::Counter* committed =
      obs::GetCounterOrNull("chain.parallel.committed");
  static obs::Counter* conflicts =
      obs::GetCounterOrNull("chain.parallel.conflicts");
  static obs::Counter* reexecuted =
      obs::GetCounterOrNull("chain.parallel.reexecuted");
  static obs::Counter* hint_violations =
      obs::GetCounterOrNull("chain.parallel.hint_violations");
  static obs::Histogram* wave_us = obs::GetHistogramOrNull(
      "chain.parallel.wave_us", obs::DefaultTimeBucketsUs());

  ParallelExecStats s;  // this wave only; accumulated into *stats at the end

  trace::Tracer* tracer = trace::Tracer::Global();
  trace::ScopedSpan wave_span(tracer, trace::CurrentContext(), "exec.wave",
                              "chain",
                              {{"txs", std::to_string(tx_count)}});
  obs::ScopedTimer wave_timer(wave_us);
  if (waves != nullptr) waves->Inc();

  // Speculation wave: every transaction runs against its own overlay of the
  // frozen pre-block state. The overlays never write the base, so the wave
  // is race-free by construction.
  const size_t n = tx_count;
  std::vector<std::unique_ptr<state::SpeculativeState>> overlays(n);
  std::vector<Receipt> receipts(n);
  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::Shared();
  pool.ParallelFor(n, [&](size_t i) {
    overlays[i] = std::make_unique<state::SpeculativeState>(state);
    receipts[i] = execute(*overlays[i], i);
  });
  s.speculated += n;
  if (speculated != nullptr) speculated->Inc(n);

  // Containment audit: a transaction's known hint must cover what each of
  // its executions recorded.
  const bool audit = audit_hints != nullptr && audit_hints->size() == n;
  auto audit_execution = [&](size_t i, const state::SpeculativeState& run) {
    if (!audit || !(*audit_hints)[i].known) return;
    const TxAccessHint& h = (*audit_hints)[i];
    if (!h.reads.Covers(run.reads()) || !h.writes.Covers(run.writes())) {
      ++s.hint_violations;
    }
  };

  // Ordered commit: transaction i's speculation is committed verbatim iff
  // its reads saw nothing any earlier transaction wrote; otherwise its
  // overlay is discarded and it re-executes against the current committed
  // state (the re-execution also runs on an overlay purely to capture the
  // write set later conflict checks need — it commits unconditionally).
  state::AccessSet committed_writes;
  for (size_t i = 0; i < n; ++i) {
    audit_execution(i, *overlays[i]);
    if (!overlays[i]->reads().Intersects(committed_writes)) {
      overlays[i]->ApplyTo(state);
      committed_writes.MergeFrom(overlays[i]->writes());
      ++s.committed;
    } else {
      ++s.conflicts;
      ++s.reexecuted;
      state::SpeculativeState retry(state);
      receipts[i] = execute(retry, i);
      audit_execution(i, retry);
      retry.ApplyTo(state);
      committed_writes.MergeFrom(retry.writes());
    }
    overlays[i].reset();
  }
  if (committed != nullptr) committed->Inc(s.committed);
  if (conflicts != nullptr) conflicts->Inc(s.conflicts);
  if (reexecuted != nullptr) reexecuted->Inc(s.reexecuted);
  if (hint_violations != nullptr && s.hint_violations > 0)
    hint_violations->Inc(s.hint_violations);
  wave_span.AddArg("conflicts", std::to_string(s.conflicts));
  wave_span.AddArg("committed", std::to_string(s.committed));
  if (stats != nullptr) {
    stats->speculated += s.speculated;
    stats->committed += s.committed;
    stats->conflicts += s.conflicts;
    stats->reexecuted += s.reexecuted;
    stats->hint_violations += s.hint_violations;
  }
  return receipts;
}

}  // namespace onoff::chain
