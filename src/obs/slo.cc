#include "obs/slo.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "util/clock.h"

namespace preemptdb::obs {

namespace {

// Process-global violation totals, summed over every watchdog's
// per-instance counts so the admin plane's kMetrics payload carries the SLO
// state with zero plumbing.
Counter g_hp_violations("slo.hp_violations");
Counter g_lp_violations("slo.lp_violations");

size_t RoundUpPow2(size_t v) {
  size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

SloTracker::SloTracker(uint64_t target_ns, double percentile,
                       uint64_t window_ns, size_t ring_capacity)
    : target_ns_(target_ns),
      percentile_(percentile),
      window_ns_(window_ns),
      ring_(RoundUpPow2(ring_capacity < 2 ? 2 : ring_capacity)) {
  mask_ = ring_.size() - 1;
}

void SloTracker::Record(uint64_t latency_ns, uint64_t now_ns) {
  // Lock-free multi-producer: claim a slot, then publish latency before
  // timestamp. A torn read (Evaluate catching the slot mid-rewrite) can at
  // worst pair a fresh timestamp with a stale latency from the previous lap
  // — one sample of noise in a percentile over thousands, and the window
  // filter discards stale timestamps entirely.
  uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed) & mask_;
  ring_[idx].latency_ns.store(latency_ns, std::memory_order_relaxed);
  ring_[idx].ts_ns.store(now_ns == 0 ? 1 : now_ns, std::memory_order_release);
}

SloTracker::Verdict SloTracker::Evaluate(uint64_t now_ns) const {
  Verdict v;
  uint64_t cutoff = now_ns > window_ns_ ? now_ns - window_ns_ : 0;
  std::vector<uint64_t> live;
  live.reserve(ring_.size());
  for (const Sample& s : ring_) {
    uint64_t ts = s.ts_ns.load(std::memory_order_acquire);
    if (ts == 0 || ts <= cutoff || ts > now_ns) continue;
    live.push_back(s.latency_ns.load(std::memory_order_relaxed));
  }
  v.samples = live.size();
  if (live.empty()) return v;  // empty window: never a breach
  double rank = percentile_ / 100.0 * static_cast<double>(live.size() - 1);
  size_t k = static_cast<size_t>(rank + 0.5);
  if (k >= live.size()) k = live.size() - 1;
  std::nth_element(live.begin(), live.begin() + k, live.end());
  v.measured_ns = live[k];
  v.breach = target_ns_ > 0 && v.measured_ns > target_ns_;
  return v;
}

SloWatchdog::SloWatchdog(const SloConfig& config)
    : config_(config),
      hp_(config.hp_target_us * 1000, config.percentile,
          config.window_ms * 1'000'000, config.ring_capacity),
      lp_(config.lp_target_us * 1000, config.percentile,
          config.window_ms * 1'000'000, config.ring_capacity),
      hp_violations_(g_hp_violations),
      lp_violations_(g_lp_violations) {}

SloWatchdog::~SloWatchdog() { Stop(); }

void SloWatchdog::Start() {
  if (!config_.enabled() || thread_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  gauges_.Add("slo.hp_p_us", [this] {
    return static_cast<double>(hp_measured_ns()) / 1000.0;
  });
  gauges_.Add("slo.lp_p_us", [this] {
    return static_cast<double>(lp_measured_ns()) / 1000.0;
  });
  gauges_.Add("slo.hp_breached",
              [this] { return hp_breached() ? 1.0 : 0.0; });
  gauges_.Add("slo.lp_breached",
              [this] { return lp_breached() ? 1.0 : 0.0; });
  thread_ = std::thread([this] { ThreadBody(); });
}

void SloWatchdog::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  gauges_.Clear();
}

void SloWatchdog::ThreadBody() {
  RegisterThisThread("slo-watchdog");
  // Absolute deadlines, like StatsReporter: evaluation cost never stretches
  // the cadence the rolling window is defined against.
  auto next = std::chrono::steady_clock::now();
  const auto period = std::chrono::milliseconds(
      config_.eval_period_ms == 0 ? 100 : config_.eval_period_ms);
  while (!stop_.load(std::memory_order_acquire)) {
    EvaluateOnce(MonoNanos());
    next += period;
    auto now = std::chrono::steady_clock::now();
    if (next < now - period) next = now;
    std::this_thread::sleep_until(next);
  }
}

void SloWatchdog::Record(bool high_priority, uint64_t latency_ns,
                         uint64_t now_ns) {
  (high_priority ? hp_ : lp_).Record(latency_ns, now_ns);
}

void SloWatchdog::EvaluateClass(bool high_priority, const SloTracker& tracker,
                                uint64_t now_ns) {
  if (tracker.target_ns() == 0) return;
  SloTracker::Verdict v = tracker.Evaluate(now_ns);
  auto& measured = high_priority ? hp_measured_ns_ : lp_measured_ns_;
  auto& breached = high_priority ? hp_breached_ : lp_breached_;
  measured.store(v.measured_ns, std::memory_order_relaxed);
  bool was = breached.load(std::memory_order_relaxed);
  if (v.breach) {
    (high_priority ? hp_violations_ : lp_violations_).Add();
    if (!was) {
      Trace(EventType::kSloBreach, high_priority ? 1 : 0, v.measured_ns);
    }
  } else if (was) {
    Trace(EventType::kSloRecover, high_priority ? 1 : 0, v.measured_ns);
  }
  breached.store(v.breach, std::memory_order_relaxed);
}

void SloWatchdog::EvaluateOnce(uint64_t now_ns) {
  EvaluateClass(true, hp_, now_ns);
  EvaluateClass(false, lp_, now_ns);
  evaluations_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace preemptdb::obs
