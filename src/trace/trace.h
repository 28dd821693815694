// The span tracer: causal, per-trace observability for the on/off-chain
// pipeline. A TraceContext (trace id + parent span id) is minted when a
// protocol run or a signed transaction starts and is propagated through the
// MessageBus, the simulated transport, the tx pool, block packing and EVM
// execution; every hop records a Span into a fixed-capacity ring buffer.
// A transaction's context rides in its pool record (chain::PendingTx) from
// admission to block inclusion, so the Transaction wire format carries no
// trace ids and the tracer keeps no per-transaction table.
//
// Clocking: spans are stamped from obs::Clock, the one observability time
// source — the sim's virtual clock while a simulation is bound (making
// exports byte-deterministic), the monotonic wall clock otherwise.
//
// Sampling + cost: StartTrace applies deterministic 1-in-N sampling; an
// unsampled trace yields an invalid context (trace_id == 0) which turns every
// downstream Begin/End/Event call into a cheap early-out. With no tracer
// installed the instrumented call sites pay one null-pointer test.
//
// Export: ToJson emits the `onoffchain-trace-v1` schema, ToChromeTrace emits
// Chrome trace-event (catapult) JSON loadable in chrome://tracing or
// ui.perfetto.dev. Both are byte-deterministic given deterministic
// timestamps: spans sort by (trace_id, start_us, span_id) and args by key.

#ifndef ONOFFCHAIN_TRACE_TRACE_H_
#define ONOFFCHAIN_TRACE_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace onoff::trace {

// The propagated handle: which trace an operation belongs to and which span
// is its causal parent. trace_id == 0 means "not traced" (either tracing is
// off or this trace was sampled out) and makes every tracer call a no-op.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

// Span arguments: small string key/value annotations (tx hash, settlement
// kind, drop reason, ...). Sorted by key at export time.
using Args = std::vector<std::pair<std::string, std::string>>;

// One completed (or instant) span.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;      // "protocol.run", "bus.flight", "evm.call", ...
  std::string category;  // "protocol" | "net" | "chain" | "evm"
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  bool instant = false;  // point event, dur_us == 0
  Args args;
};

struct TracerConfig {
  // Completed spans kept in memory; the oldest are overwritten beyond this.
  size_t ring_capacity = 16384;
  // Deterministic 1-in-N sampling for StartTrace. 1 traces everything; 0 is
  // treated as 1.
  uint64_t sample_every = 1;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});

  // The process-global tracer used by instrumented call sites. nullptr until
  // InstallGlobal; call sites must null-test (one branch when tracing off).
  static Tracer* Global();
  // Installs `tracer` (not owned; pass nullptr to detach). Returns the
  // previous global so tests can restore it.
  static Tracer* InstallGlobal(Tracer* tracer);

  // Mints a new trace id (or an invalid context when sampled out). The
  // returned context has span_id == 0: it is the parent for the root span.
  TraceContext StartTrace();

  // Opens a span under `parent`. Returns the context to propagate to
  // children; the caller must EndSpan it. No-op (returns invalid) when
  // `parent` is invalid.
  TraceContext BeginSpan(const TraceContext& parent, const std::string& name,
                         const std::string& category, Args args = {});
  // Closes a span previously returned by BeginSpan, appending `args` to the
  // ones given at open.
  void EndSpan(const TraceContext& ctx, Args args = {});

  // Records an instant event under `ctx` (zero duration).
  void Event(const TraceContext& ctx, const std::string& name,
             const std::string& category, Args args = {});

  // Completed spans in stable (trace_id, start_us, span_id) order, args
  // sorted by key. Open spans are not included.
  std::vector<Span> Snapshot() const;

  // { "schema": "onoffchain-trace-v1", "spans": [...], "counters": {...} }
  obs::Json ToJson() const;
  // Chrome trace-event JSON: one complete event ("ph":"X") per span, one
  // instant event ("ph":"i") per event; pid 1, tid = trace id.
  obs::Json ToChromeTrace() const;

  // Drops all completed and open spans. Counters and id allocators keep
  // running (ids stay unique per tracer).
  void Clear();

  uint64_t traces_started() const;
  uint64_t traces_sampled_out() const;
  uint64_t spans_completed() const;
  uint64_t spans_dropped() const;
  const TracerConfig& config() const { return config_; }

 private:
  void Complete(Span span);  // mu_ held

  TracerConfig config_;

  mutable std::mutex mu_;
  std::vector<Span> ring_;                       // guarded by mu_
  size_t ring_next_ = 0;                         // guarded by mu_
  std::unordered_map<uint64_t, Span> open_;      // guarded by mu_
  uint64_t next_trace_id_ = 1;                   // guarded by mu_
  uint64_t next_span_id_ = 1;                    // guarded by mu_
  uint64_t traces_started_ = 0;                  // guarded by mu_
  uint64_t traces_sampled_out_ = 0;              // guarded by mu_
  uint64_t spans_completed_ = 0;                 // guarded by mu_
  uint64_t spans_dropped_ = 0;                   // guarded by mu_
};

// RAII span: opens in the constructor, closes in the destructor. A null
// tracer or invalid parent makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const TraceContext& parent,
             const std::string& name, const std::string& category,
             Args args = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // The span's own context (invalid when no-op) — pass to children.
  const TraceContext& context() const { return ctx_; }
  // Attaches an argument delivered with EndSpan.
  void AddArg(std::string key, std::string value);

 private:
  Tracer* tracer_;
  TraceContext ctx_;
  Args end_args_;
};

// The ambient per-thread context: lets layers that cannot thread a
// TraceContext through their signatures (Blockchain::SubmitTransaction under
// the protocol driver, for example) pick up the caller's context.
// Scheduler-deferred closures run with an empty stack — capture the context
// by value at schedule time and re-push it inside the closure.
TraceContext CurrentContext();

class ScopedContext {
 public:
  explicit ScopedContext(const TraceContext& ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;
};

}  // namespace onoff::trace

#endif  // ONOFFCHAIN_TRACE_TRACE_H_
