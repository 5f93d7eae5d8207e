// Adaptive preemption controller: closes the loop between the SLO sensors
// (obs/slo.h, the stage histograms, the degradation state machine) and the
// runtime-tunable scheduler knobs (sched/tunable.h).
//
// The paper fixes the starvation threshold and admission batch at startup;
// LibPreemptible (arXiv 2308.02896) shows tail-latency-driven dynamic tuning
// beats every static setting once the load mix shifts. This controller is a
// deliberately small AIMD/hill-climbing policy, not a model: each evaluation
// compares the observed HP tail percentile against its target inside a
// hysteresis dead-band and steps at most once per settle window, so the knob
// trajectory is monotone between load changes and cannot oscillate at the
// evaluation frequency.
//
// Policy per evaluation (EvaluateOnce):
//   1. No HP percentile yet -> hold (never tune blind).
//   2. Workers demoted (signal path degraded) -> freeze the structural
//      knobs; retune only the degradation knobs: probe faster (recovery
//      latency) and widen the demote latency budget (no demote/promote
//      flapping while the path is known-bad).
//   3. All workers healthy again -> walk the degradation knobs back toward
//      their seeds, one step per settle window.
//   4. HP p-tail above target * (1 + hysteresis) -> additive-increase the
//      starvation threshold (more preemption headroom for HP) and double
//      the admission batch toward its rail (multiplicative, AIMD's fast
//      recovery: an admission-capped backlog grows unboundedly until the
//      batch rail moves, so the response must outrun the backlog).
//   5. HP p-tail below target * (1 - hysteresis) while LP is in trouble
//      (breached, or above its own target) -> give capacity back: lower
//      the threshold additively, halve the batch toward auto. If
//      starvation prevention is disabled entirely, first enable it at the
//      threshold rail — the explicit enabled/disabled state makes "turn
//      protection on" a deliberate, observable transition instead of a
//      side effect of crossing a magic sentinel.
//   6. Otherwise -> hold.
//
// Every retune is observable: ctl.retunes / ctl.evals / ctl.holds counters,
// per-knob kCtlRetune trace events carrying old -> new, and ctl.* gauges
// (current knob values + seconds since the last retune) for pdb_top.
#ifndef PREEMPTDB_SCHED_CONTROLLER_H_
#define PREEMPTDB_SCHED_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

#include "obs/metrics.h"
#include "sched/tunable.h"
#include "util/macros.h"

namespace preemptdb::sched {

struct ControllerConfig {
  // Evaluation cadence of the controller thread (Start()).
  uint64_t period_ms = 100;
  // HP tail-latency target; 0 disables the controller entirely.
  uint64_t hp_target_us = 0;
  // LP tail-latency target used as the "LP in trouble" signal for step 5;
  // 0 means only the lp_breached signal can trigger give-back.
  uint64_t lp_target_us = 0;
  // Dead-band half-width around the HP target. No retune while the measured
  // tail is within [target*(1-h), target*(1+h)].
  double hysteresis = 0.15;
  // Additive threshold step and its rails (step 4/5). The rails are
  // deliberately inside [0,1]: the controller can never drive the threshold
  // to the degenerate ends (0 forbids all preemptive HP execution, 1 never
  // skips), those remain operator-only settings via kSetConfig.
  double threshold_step = 0.1;
  double threshold_min = 0.05;
  double threshold_max = 0.95;
  // Rail for the multiplicative hp_batch_size increase (step 4).
  size_t hp_batch_max = 4096;
  // Evaluations to wait after a retune before acting again — the settle
  // window that lets the rolling SLO window absorb the change.
  int settle_evals = 3;
  // Master switch for steps 2/3 (degradation-knob management).
  bool manage_degradation = true;

  bool enabled() const { return hp_target_us > 0; }
};

// Sensor inputs, injected as closures so tests drive the controller with
// synthetic signals and production wires it to SloWatchdog + Scheduler.
// Unset closures read as "no data" / "healthy".
struct ControllerSignals {
  std::function<uint64_t()> hp_p99_ns;      // 0 = no samples yet
  std::function<uint64_t()> lp_p99_ns;      // 0 = no samples yet
  std::function<bool()> lp_breached;        // LP class currently breached
  std::function<int()> degraded_workers;    // workers demoted to yield mode
};

// Knob ids stamped into kCtlRetune's a32. The a64 payload packs
// old << 32 | new, with starvation_threshold scaled by 1e4 to fit the
// integer fields.
enum class CtlKnob : uint32_t {
  kStarvationEnabled = 0,
  kStarvationThreshold = 1,
  kHpBatchSize = 2,
  kDemoteLatencyNs = 3,
  kProbeIntervalTicks = 4,
};

class Controller {
 public:
  // `tunables` must outlive the controller. Its snapshot at construction
  // provides the degradation-knob seeds step 3 restores toward.
  Controller(const ControllerConfig& config, TunableConfig* tunables,
             ControllerSignals signals);
  ~Controller();
  PDB_DISALLOW_COPY_AND_ASSIGN(Controller);

  // Spawns / joins the evaluation thread (no-ops when !config.enabled()).
  void Start();
  void Stop();

  // One evaluation pass at `now_ns`. Called by the thread every period_ms;
  // exposed for deterministic tests with synthetic clocks.
  void EvaluateOnce(uint64_t now_ns);

  uint64_t evals() const { return evals_.Value(); }
  uint64_t retunes() const { return retunes_.Value(); }
  uint64_t holds() const { return holds_.Value(); }
  // Timestamp (the now_ns of the evaluation) of the last retune; 0 = never.
  uint64_t last_retune_ns() const {
    return last_retune_ns_.load(std::memory_order_relaxed);
  }
  // Short static string naming the last decision ("hp_over_target",
  // "lp_over_target", "degraded", "recovering", "hold", "no_data", ...).
  const char* last_action() const {
    return last_action_.load(std::memory_order_relaxed);
  }

  const ControllerConfig& config() const { return config_; }

 private:
  void ThreadBody();
  // Records one knob change in the trace + pending changeset.
  static void NoteRetune(CtlKnob knob, uint64_t old_v, uint64_t new_v);

  const ControllerConfig config_;
  TunableConfig* const tunables_;
  const ControllerSignals signals_;
  // Degradation-knob seeds (restoration targets for step 3).
  const uint64_t seed_demote_latency_ns_;
  const uint64_t seed_probe_ticks_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  obs::LocalCounter evals_;    // ctl.evals
  obs::LocalCounter retunes_;  // ctl.retunes
  obs::LocalCounter holds_;    // ctl.holds
  std::atomic<uint64_t> last_retune_ns_{0};
  std::atomic<const char*> last_action_;
  int evals_since_retune_ = 0;  // evaluation-thread / test-driver only
  obs::GaugeGroup gauges_;
};

}  // namespace preemptdb::sched

#endif  // PREEMPTDB_SCHED_CONTROLLER_H_
