#include "sim/transport.h"

#include "obs/metrics.h"
#include "trace/trace.h"

namespace onoff::sim {

namespace {

// 0 .. ~65s in powers of 4 — virtual one-way delays.
const std::vector<double>& DelayBucketsMs() {
  static const std::vector<double> buckets =
      obs::ExponentialBuckets(1.0, 4.0, 9);
  return buckets;
}

}  // namespace

SimTransport::SimTransport(Scheduler* scheduler, uint64_t seed)
    : scheduler_(scheduler), seed_(seed) {}

void SimTransport::SetDefaultLink(const LinkConfig& config) {
  default_link_ = config;
}

void SimTransport::SetLink(const std::string& from, const std::string& to,
                           const LinkConfig& config) {
  uint64_t stream = HashName(from) * 3 + HashName(to);
  links_.insert_or_assign({from, to},
                          Link(config, Rng::ForStream(seed_, stream)));
}

Link& SimTransport::LinkFor(const std::string& from, const std::string& to) {
  auto it = links_.find({from, to});
  if (it != links_.end()) return it->second;
  uint64_t stream = HashName(from) * 3 + HashName(to);
  it = links_
           .emplace(std::make_pair(from, to),
                    Link(default_link_, Rng::ForStream(seed_, stream)))
           .first;
  return it->second;
}

void SimTransport::Partition(const std::vector<std::string>& island) {
  partition_active_ = true;
  partition_started_ms_ = scheduler_->NowMs();
  island_ = std::set<std::string>(island.begin(), island.end());
  static obs::Counter* partitions = obs::GetCounterOrNull("sim.partitions");
  if (partitions != nullptr) partitions->Inc();
}

void SimTransport::Heal() {
  if (!partition_active_) return;
  partition_active_ = false;
  static obs::Counter* partition_ms =
      obs::GetCounterOrNull("sim.partition_ms");
  if (partition_ms != nullptr) {
    partition_ms->Inc(scheduler_->NowMs() - partition_started_ms_);
  }
  island_.clear();
}

void SimTransport::SchedulePartition(uint64_t at_ms,
                                     std::vector<std::string> island,
                                     uint64_t heal_ms) {
  scheduler_->ScheduleAt(at_ms, [this, island = std::move(island)] {
    Partition(island);
  });
  if (heal_ms > at_ms) scheduler_->ScheduleAt(heal_ms, [this] { Heal(); });
}

void SimTransport::Crash(const std::string& endpoint) {
  crashed_.insert(endpoint);
  static obs::Counter* crashes = obs::GetCounterOrNull("sim.crashes");
  if (crashes != nullptr) crashes->Inc();
}

void SimTransport::Restart(const std::string& endpoint) {
  crashed_.erase(endpoint);
  static obs::Counter* restarts = obs::GetCounterOrNull("sim.restarts");
  if (restarts != nullptr) restarts->Inc();
}

void SimTransport::ScheduleCrash(uint64_t at_ms, std::string endpoint,
                                 uint64_t restart_ms) {
  scheduler_->ScheduleAt(at_ms, [this, endpoint] { Crash(endpoint); });
  if (restart_ms > at_ms) {
    scheduler_->ScheduleAt(restart_ms,
                           [this, endpoint = std::move(endpoint)] {
                             Restart(endpoint);
                           });
  }
}

bool SimTransport::SameSide(const std::string& from,
                            const std::string& to) const {
  if (!partition_active_) return true;
  return (island_.count(from) > 0) == (island_.count(to) > 0);
}

void SimTransport::CountDrop(const std::string& from, const std::string& to,
                             uint64_t* stat, const char* reason) {
  ++*stat;
  if (obs::Registry* g = obs::Registry::Global()) {
    g->GetCounter(std::string("sim.msgs_dropped_") + reason)->Inc();
    g->GetCounter("sim.link." + from + "->" + to + ".dropped")->Inc();
  }
}

bool SimTransport::Deliver(const std::string& from, const std::string& to,
                           size_t bytes, std::function<void()> deliver) {
  ++stats_.sent;
  static obs::Counter* sent = obs::GetCounterOrNull("sim.msgs_sent");
  if (sent != nullptr) sent->Inc();

  // Sender's ambient trace context, captured before the scheduler defers
  // delivery (the closure runs with an empty thread-local context stack).
  trace::Tracer* tracer = trace::Tracer::Global();
  trace::TraceContext ctx =
      tracer != nullptr ? trace::CurrentContext() : trace::TraceContext{};
  auto drop_event = [&](const char* reason) {
    if (tracer != nullptr) {
      tracer->Event(ctx, "net.drop", "net",
                    {{"link", from + "->" + to}, {"reason", reason}});
    }
  };

  if (crashed_.count(from) > 0 || crashed_.count(to) > 0) {
    CountDrop(from, to, &stats_.dropped_crash, "crash");
    drop_event("crash");
    return false;
  }
  if (!SameSide(from, to)) {
    CountDrop(from, to, &stats_.dropped_partition, "partition");
    drop_event("partition");
    return false;
  }
  auto delay = LinkFor(from, to).SampleDelay(bytes);
  if (!delay.has_value()) {
    CountDrop(from, to, &stats_.dropped_loss, "loss");
    drop_event("loss");
    return false;
  }
  if (obs::Registry* g = obs::Registry::Global()) {
    g->GetHistogram("sim.delay_ms", DelayBucketsMs())
        ->Observe(static_cast<double>(*delay));
  }
  // One hop in flight on the virtual clock: the span's duration is the
  // sampled link delay.
  trace::TraceContext flight;
  if (tracer != nullptr) {
    flight = tracer->BeginSpan(ctx, "net.flight", "net",
                               {{"link", from + "->" + to},
                                {"delay_ms", std::to_string(*delay)}});
  }
  scheduler_->ScheduleAfter(
      *delay, [this, from, to, delay = *delay, tracer, flight,
               deliver = std::move(deliver)] {
        if (crashed_.count(to) > 0) {
          CountDrop(from, to, &stats_.dropped_crash, "crash");
          if (tracer != nullptr) {
            tracer->EndSpan(flight, {{"dropped", "crash_on_arrival"}});
          }
          return;
        }
        ++stats_.delivered;
        stats_.delay_ms_sum += delay;
        if (obs::Registry* g = obs::Registry::Global()) {
          g->GetCounter("sim.msgs_delivered")->Inc();
          g->GetCounter("sim.link." + from + "->" + to + ".delivered")->Inc();
        }
        deliver();
        if (tracer != nullptr) tracer->EndSpan(flight);
      });
  return true;
}

}  // namespace onoff::sim
