#include "trace/trace.h"

#include <algorithm>
#include <atomic>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace onoff::trace {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};

std::vector<TraceContext>& TlsContextStack() {
  thread_local std::vector<TraceContext> stack;
  return stack;
}

// Stable exporter ordering.
bool SpanBefore(const Span& a, const Span& b) {
  if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
  if (a.start_us != b.start_us) return a.start_us < b.start_us;
  return a.span_id < b.span_id;
}

void SortArgs(Args* args) {
  std::sort(args->begin(), args->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

obs::Json ArgsToJson(const Args& args) {
  obs::Json obj = obs::Json::Object();
  for (const auto& [key, value] : args) obj.Set(key, obs::Json::Str(value));
  return obj;
}

}  // namespace

Tracer::Tracer(TracerConfig config) : config_(config) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  if (config_.sample_every == 0) config_.sample_every = 1;
  ring_.reserve(std::min<size_t>(config_.ring_capacity, 1024));
}

Tracer* Tracer::Global() {
  return g_tracer.load(std::memory_order_acquire);
}

Tracer* Tracer::InstallGlobal(Tracer* tracer) {
  return g_tracer.exchange(tracer, std::memory_order_acq_rel);
}

TraceContext Tracer::StartTrace() {
  static obs::Counter* started = obs::GetCounterOrNull("trace.traces_started");
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t ordinal = traces_started_++;
  if (config_.sample_every > 1 && ordinal % config_.sample_every != 0) {
    ++traces_sampled_out_;
    return TraceContext{};
  }
  if (started != nullptr) started->Inc();
  TraceContext ctx;
  ctx.trace_id = next_trace_id_++;
  ctx.span_id = 0;
  return ctx;
}

TraceContext Tracer::BeginSpan(const TraceContext& parent,
                               const std::string& name,
                               const std::string& category, Args args) {
  if (!parent.valid()) return TraceContext{};
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.trace_id = parent.trace_id;
  span.span_id = next_span_id_++;
  span.parent_span_id = parent.span_id;
  span.name = name;
  span.category = category;
  span.start_us = obs::Clock::NowUs();
  span.args = std::move(args);
  TraceContext ctx;
  ctx.trace_id = span.trace_id;
  ctx.span_id = span.span_id;
  open_.emplace(span.span_id, std::move(span));
  return ctx;
}

void Tracer::EndSpan(const TraceContext& ctx, Args args) {
  if (!ctx.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(ctx.span_id);
  if (it == open_.end()) return;
  Span span = std::move(it->second);
  open_.erase(it);
  uint64_t now = obs::Clock::NowUs();
  span.dur_us = now >= span.start_us ? now - span.start_us : 0;
  for (auto& arg : args) span.args.push_back(std::move(arg));
  Complete(std::move(span));
}

void Tracer::Event(const TraceContext& ctx, const std::string& name,
                   const std::string& category, Args args) {
  if (!ctx.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.trace_id = ctx.trace_id;
  span.span_id = next_span_id_++;
  span.parent_span_id = ctx.span_id;
  span.name = name;
  span.category = category;
  span.start_us = obs::Clock::NowUs();
  span.instant = true;
  span.args = std::move(args);
  Complete(std::move(span));
}

void Tracer::Complete(Span span) {
  static obs::Counter* completed =
      obs::GetCounterOrNull("trace.spans_completed");
  static obs::Counter* dropped = obs::GetCounterOrNull("trace.spans_dropped");
  if (completed != nullptr) completed->Inc();
  ++spans_completed_;
  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(std::move(span));
    return;
  }
  // Ring full: overwrite the oldest completed span.
  ring_[ring_next_] = std::move(span);
  ring_next_ = (ring_next_ + 1) % config_.ring_capacity;
  ++spans_dropped_;
  if (dropped != nullptr) dropped->Inc();
}

std::vector<Span> Tracer::Snapshot() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(ring_.size());
    // Oldest-first: when the ring has wrapped, ring_next_ points at the
    // oldest surviving span.
    size_t n = ring_.size();
    size_t first = n == config_.ring_capacity ? ring_next_ : 0;
    for (size_t i = 0; i < n; ++i) out.push_back(ring_[(first + i) % n]);
  }
  std::stable_sort(out.begin(), out.end(), SpanBefore);
  for (Span& span : out) SortArgs(&span.args);
  return out;
}

obs::Json Tracer::ToJson() const {
  std::vector<Span> spans = Snapshot();
  obs::Json span_array = obs::Json::Array();
  for (const Span& span : spans) {
    obs::Json obj = obs::Json::Object();
    obj.Set("trace_id", obs::Json::Uint(span.trace_id))
        .Set("span_id", obs::Json::Uint(span.span_id))
        .Set("parent_span_id", obs::Json::Uint(span.parent_span_id))
        .Set("name", obs::Json::Str(span.name))
        .Set("category", obs::Json::Str(span.category))
        .Set("start_us", obs::Json::Uint(span.start_us))
        .Set("dur_us", obs::Json::Uint(span.dur_us))
        .Set("instant", obs::Json::Bool(span.instant))
        .Set("args", ArgsToJson(span.args));
    span_array.Push(std::move(obj));
  }
  obs::Json counters = obs::Json::Object();
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters.Set("traces_started", obs::Json::Uint(traces_started_))
        .Set("traces_sampled_out", obs::Json::Uint(traces_sampled_out_))
        .Set("spans_completed", obs::Json::Uint(spans_completed_))
        .Set("spans_dropped", obs::Json::Uint(spans_dropped_))
        .Set("open_spans", obs::Json::Uint(open_.size()));
  }
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", obs::Json::Str("onoffchain-trace-v1"))
      .Set("spans", std::move(span_array))
      .Set("counters", std::move(counters));
  return doc;
}

obs::Json Tracer::ToChromeTrace() const {
  std::vector<Span> spans = Snapshot();
  obs::Json events = obs::Json::Array();
  for (const Span& span : spans) {
    obs::Json args = obs::Json::Object();
    args.Set("span_id", obs::Json::Uint(span.span_id))
        .Set("parent_span_id", obs::Json::Uint(span.parent_span_id));
    for (const auto& [key, value] : span.args) {
      args.Set(key, obs::Json::Str(value));
    }
    obs::Json ev = obs::Json::Object();
    ev.Set("name", obs::Json::Str(span.name))
        .Set("cat", obs::Json::Str(span.category))
        .Set("ph", obs::Json::Str(span.instant ? "i" : "X"))
        .Set("ts", obs::Json::Uint(span.start_us))
        .Set("pid", obs::Json::Uint(1))
        .Set("tid", obs::Json::Uint(span.trace_id));
    if (span.instant) {
      ev.Set("s", obs::Json::Str("t"));  // thread-scoped instant
    } else {
      ev.Set("dur", obs::Json::Uint(span.dur_us));
    }
    ev.Set("args", std::move(args));
    events.Push(std::move(ev));
  }
  obs::Json doc = obs::Json::Object();
  doc.Set("traceEvents", std::move(events))
      .Set("displayTimeUnit", obs::Json::Str("ms"));
  return doc;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  ring_next_ = 0;
  open_.clear();
}

uint64_t Tracer::traces_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_started_;
}
uint64_t Tracer::traces_sampled_out() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_sampled_out_;
}
uint64_t Tracer::spans_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_completed_;
}
uint64_t Tracer::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_dropped_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const TraceContext& parent,
                       const std::string& name, const std::string& category,
                       Args args)
    : tracer_(tracer) {
  if (tracer_ != nullptr && parent.valid()) {
    ctx_ = tracer_->BeginSpan(parent, name, category, std::move(args));
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr && ctx_.valid()) {
    tracer_->EndSpan(ctx_, std::move(end_args_));
  }
}

void ScopedSpan::AddArg(std::string key, std::string value) {
  if (!ctx_.valid()) return;
  end_args_.emplace_back(std::move(key), std::move(value));
}

TraceContext CurrentContext() {
  auto& stack = TlsContextStack();
  return stack.empty() ? TraceContext{} : stack.back();
}

ScopedContext::ScopedContext(const TraceContext& ctx) {
  TlsContextStack().push_back(ctx);
}

ScopedContext::~ScopedContext() { TlsContextStack().pop_back(); }

}  // namespace onoff::trace
