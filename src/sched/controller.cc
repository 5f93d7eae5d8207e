#include "sched/controller.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/trace.h"
#include "util/clock.h"

namespace preemptdb::sched {

namespace {
obs::Counter g_evals_counter("ctl.evals");
obs::Counter g_retunes_counter("ctl.retunes");
obs::Counter g_holds_counter("ctl.holds");
obs::Counter g_rejected_counter("ctl.apply_rejected");

uint64_t Pack(uint64_t old_v, uint64_t new_v) {
  return (old_v & 0xffffffffull) << 32 | (new_v & 0xffffffffull);
}
}  // namespace

Controller::Controller(const ControllerConfig& config, TunableConfig* tunables,
                       ControllerSignals signals)
    : config_(config),
      tunables_(tunables),
      signals_(std::move(signals)),
      seed_demote_latency_ns_(tunables->demote_latency_ns()),
      seed_probe_ticks_(tunables->probe_interval_ticks()),
      evals_(g_evals_counter),
      retunes_(g_retunes_counter),
      holds_(g_holds_counter),
      last_action_("idle") {
  PDB_CHECK(tunables_ != nullptr);
}

Controller::~Controller() { Stop(); }

void Controller::Start() {
  if (!config_.enabled() || thread_.joinable()) return;
  gauges_.Add("ctl.starvation_threshold", [this] {
    return tunables_->starvation_enabled()
               ? tunables_->starvation_threshold()
               : -1.0;  // -1 renders "disabled" distinctly from any ratio
  });
  gauges_.Add("ctl.hp_batch_effective", [this] {
    return static_cast<double>(tunables_->EffectiveHpBatch());
  });
  gauges_.Add("ctl.config_version", [this] {
    return static_cast<double>(tunables_->version());
  });
  gauges_.Add("ctl.retunes", [this] {
    return static_cast<double>(retunes());
  });
  gauges_.Add("ctl.last_retune_age_s", [this] {
    uint64_t t = last_retune_ns();
    if (t == 0) return -1.0;
    return static_cast<double>(MonoNanos() - t) / 1e9;
  });
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { ThreadBody(); });
}

void Controller::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  gauges_.Clear();
}

void Controller::ThreadBody() {
  if (obs::TraceEnabled()) obs::RegisterThisThread("controller");
  // Absolute-deadline pacing (same discipline as StatsReporter): a slow
  // evaluation shortens the next sleep instead of drifting the cadence.
  const uint64_t period_ns = config_.period_ms * 1'000'000;
  uint64_t next = MonoNanos() + period_ns;
  while (!stop_.load(std::memory_order_acquire)) {
    uint64_t now = MonoNanos();
    if (now < next) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<uint64_t>(next - now, 20'000'000)));
      continue;
    }
    next += period_ns;
    if (now > next + period_ns) next = now + period_ns;  // re-base, not burst
    EvaluateOnce(now);
  }
}

void Controller::NoteRetune(CtlKnob knob, uint64_t old_v, uint64_t new_v) {
  obs::Trace(obs::EventType::kCtlRetune, static_cast<uint32_t>(knob),
             Pack(old_v, new_v));
}

void Controller::EvaluateOnce(uint64_t now_ns) {
  evals_.Add();
  ++evals_since_retune_;

  auto hold = [this](const char* why) {
    holds_.Add();
    last_action_.store(why, std::memory_order_relaxed);
  };

  const uint64_t hp_p99 = signals_.hp_p99_ns ? signals_.hp_p99_ns() : 0;
  if (hp_p99 == 0) {
    hold("no_data");
    return;
  }
  const bool can_retune = evals_since_retune_ >= config_.settle_evals;
  const int degraded =
      signals_.degraded_workers ? signals_.degraded_workers() : 0;

  TunableConfig::ChangeSet cs;
  const char* action = nullptr;
  const TunableValues cur = tunables_->Snapshot();
  const size_t effective_batch =
      cur.hp_batch_size != 0 ? cur.hp_batch_size : tunables_->auto_hp_batch();

  if (config_.manage_degradation && degraded > 0) {
    // Step 2 — degraded: the signal path is the bottleneck, not the knobs.
    // Structural knobs freeze (retuning the threshold against latencies
    // produced by a broken delivery path would chase noise); the
    // degradation knobs adapt instead: probe every tick bound toward the
    // minimum for fast re-promotion, and double the demote latency budget
    // so a recovering path is not instantly re-demoted.
    if (can_retune) {
      bool changed = false;
      if (cur.probe_interval_ticks > kProbeIntervalTicksMin) {
        uint64_t next_probe =
            std::max<uint64_t>(kProbeIntervalTicksMin,
                               cur.probe_interval_ticks / 2);
        cs.probe_interval_ticks = next_probe;
        NoteRetune(CtlKnob::kProbeIntervalTicks, cur.probe_interval_ticks,
                   next_probe);
        changed = true;
      }
      if (cur.demote_latency_ns != 0 &&
          cur.demote_latency_ns < kDemoteLatencyNsMax) {
        uint64_t next_lat =
            std::min<uint64_t>(kDemoteLatencyNsMax, cur.demote_latency_ns * 2);
        cs.demote_latency_ns = next_lat;
        NoteRetune(CtlKnob::kDemoteLatencyNs, cur.demote_latency_ns,
                   next_lat);
        changed = true;
      }
      action = changed ? "degraded" : nullptr;
    }
    if (action == nullptr) {
      hold("degraded_hold");
      return;
    }
  } else if (config_.manage_degradation && degraded == 0 &&
             (cur.probe_interval_ticks != seed_probe_ticks_ ||
              cur.demote_latency_ns != seed_demote_latency_ns_)) {
    // Step 3 — recovered: walk the degradation knobs back toward their
    // seeds one multiplicative step per settle window.
    if (!can_retune) {
      hold("recovering_hold");
      return;
    }
    if (cur.probe_interval_ticks != seed_probe_ticks_) {
      uint64_t next_probe =
          std::min<uint64_t>(seed_probe_ticks_,
                             std::max<uint64_t>(cur.probe_interval_ticks * 2,
                                                cur.probe_interval_ticks + 1));
      cs.probe_interval_ticks = next_probe;
      NoteRetune(CtlKnob::kProbeIntervalTicks, cur.probe_interval_ticks,
                 next_probe);
    }
    if (cur.demote_latency_ns != seed_demote_latency_ns_) {
      uint64_t next_lat = std::max<uint64_t>(seed_demote_latency_ns_,
                                             cur.demote_latency_ns / 2);
      cs.demote_latency_ns = next_lat;
      NoteRetune(CtlKnob::kDemoteLatencyNs, cur.demote_latency_ns, next_lat);
    }
    action = "recovering";
  } else {
    const uint64_t target_ns = config_.hp_target_us * 1000;
    const uint64_t hi = static_cast<uint64_t>(
        static_cast<double>(target_ns) * (1.0 + config_.hysteresis));
    const uint64_t lo = static_cast<uint64_t>(
        static_cast<double>(target_ns) * (1.0 - config_.hysteresis));
    const uint64_t lp_p99 = signals_.lp_p99_ns ? signals_.lp_p99_ns() : 0;
    const bool lp_pressure =
        (signals_.lp_breached && signals_.lp_breached()) ||
        (config_.lp_target_us > 0 && lp_p99 > config_.lp_target_us * 1000);

    if (hp_p99 > hi) {
      // Step 4 — HP over target: more preemption headroom, bigger batch.
      if (!can_retune) {
        hold("settling");
        return;
      }
      if (cur.starvation_enabled &&
          cur.starvation_threshold < config_.threshold_max) {
        double next_thr = std::min(config_.threshold_max,
                                   cur.starvation_threshold +
                                       config_.threshold_step);
        cs.starvation_threshold = next_thr;
        NoteRetune(CtlKnob::kStarvationThreshold,
                   static_cast<uint64_t>(cur.starvation_threshold * 1e4),
                   static_cast<uint64_t>(next_thr * 1e4));
      }
      if (effective_batch < config_.hp_batch_max) {
        size_t next_batch = std::min(config_.hp_batch_max,
                                     std::min(kHpBatchSizeMax,
                                              effective_batch * 2));
        cs.hp_batch_size = next_batch;
        NoteRetune(CtlKnob::kHpBatchSize, effective_batch, next_batch);
      }
      if (cs.empty()) {
        hold("hp_over_target_railed");  // both knobs at their rails
        return;
      }
      action = "hp_over_target";
    } else if (hp_p99 < lo && lp_pressure) {
      // Step 5 — HP comfortably under target while LP suffers: give back.
      if (!can_retune) {
        hold("settling");
        return;
      }
      if (!cur.starvation_enabled) {
        // Explicit-state payoff: enabling protection is its own observable
        // transition, starting from the laxest rail.
        cs.starvation_enabled = true;
        cs.starvation_threshold = config_.threshold_max;
        NoteRetune(CtlKnob::kStarvationEnabled, 0, 1);
      } else if (cur.starvation_threshold > config_.threshold_min) {
        double next_thr = std::max(config_.threshold_min,
                                   cur.starvation_threshold -
                                       config_.threshold_step);
        cs.starvation_threshold = next_thr;
        NoteRetune(CtlKnob::kStarvationThreshold,
                   static_cast<uint64_t>(cur.starvation_threshold * 1e4),
                   static_cast<uint64_t>(next_thr * 1e4));
      }
      if (effective_batch > tunables_->auto_hp_batch()) {
        size_t next_batch = std::max(tunables_->auto_hp_batch(),
                                     effective_batch / 2);
        // Reaching the auto value is expressed as 0 ("auto"), keeping the
        // published config canonical.
        cs.hp_batch_size =
            next_batch == tunables_->auto_hp_batch() ? 0 : next_batch;
        NoteRetune(CtlKnob::kHpBatchSize, effective_batch, next_batch);
      }
      if (cs.empty()) {
        hold("lp_over_target_railed");
        return;
      }
      action = "lp_over_target";
    } else {
      hold("hold");
      return;
    }
  }

  std::string err;
  if (!tunables_->Apply(cs, &err)) {
    // Guard rails in Apply are strictly wider than the controller's own, so
    // this indicates a bug — count it loudly rather than crash the loop.
    g_rejected_counter.Add();
    hold("apply_rejected");
    return;
  }
  retunes_.Add();
  last_retune_ns_.store(now_ns, std::memory_order_relaxed);
  last_action_.store(action, std::memory_order_relaxed);
  evals_since_retune_ = 0;
}

}  // namespace preemptdb::sched
