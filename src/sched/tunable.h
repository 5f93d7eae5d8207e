// Runtime-tunable scheduler parameters.
//
// SchedulerConfig used to be a construction-time copy: every knob was frozen
// at Scheduler construction and the only "mutation path" was editing the
// struct before building the DB. TunableConfig splits the runtime-tunable
// subset out into an atomic, versioned, validated registry that the
// scheduling loop and workers read per-tick. All mutation goes through one
// entry point — Apply(ChangeSet) — shared by the adaptive controller
// (sched/controller.h), the wire admin plane (kSetConfig) and tests, so
// validation and version accounting cannot be bypassed.
//
// Read side: each knob is a single relaxed atomic load (word-sized types on
// x86-64), safe from any thread including the scheduling tick. A reader may
// observe two knobs from different Apply() generations mid-update; every
// consumer treats knobs independently, so that tear is harmless.
// Write side: Apply() serializes writers behind a mutex, validates the whole
// candidate snapshot first (all-or-nothing: an out-of-range field rejects the
// entire ChangeSet), then publishes field by field and bumps the version.
#ifndef PREEMPTDB_SCHED_TUNABLE_H_
#define PREEMPTDB_SCHED_TUNABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "util/macros.h"

namespace preemptdb::obs {
class JsonWriter;
}  // namespace preemptdb::obs

namespace preemptdb::sched {

// Guard rails enforced by TunableConfig::Apply. Constants rather than config
// so no caller — controller included — can widen its own limits.
inline constexpr double kStarvationThresholdMin = 0.0;
inline constexpr double kStarvationThresholdMax = 1.0;
inline constexpr size_t kHpBatchSizeMax = 65536;          // 0 = auto
inline constexpr int kDemoteFailureThresholdMax = 1000;   // 0 = disabled
inline constexpr uint64_t kDemoteLatencyNsMin = 1'000'000;          // 1 ms
inline constexpr uint64_t kDemoteLatencyNsMax = 60'000'000'000ULL;  // 60 s
inline constexpr uint64_t kProbeIntervalTicksMin = 1;
inline constexpr uint64_t kProbeIntervalTicksMax = 1'000'000;
inline constexpr int kInterleaveSlotsMin = 1;  // 1 = no interleaving
inline constexpr int kInterleaveSlotsMax = 8;

// The tunable subset of the scheduler knob surface (see sched/config.h for
// the immutable structural fields). Plain value struct: used as the seed in
// SchedulerConfig and as the snapshot type read back out of TunableConfig.
struct TunableValues {
  // Starvation prevention (paper §5/§6.4). The old API encoded "disabled"
  // as the magic sentinel threshold >= 100; that made a controller raising
  // the threshold indistinguishable from one turning the feature off.
  // Disabled is now an explicit state and the threshold is a real ratio in
  // [0, 1]. Note threshold 0.0 with the feature *enabled* is meaningful and
  // distinct: the >= comparison then forbids all preemptive HP execution
  // (paper §6.4), which is exactly what the old `threshold = 0` meant.
  bool starvation_enabled = false;
  double starvation_threshold = 0.5;  // L_max, only consulted when enabled

  // High-priority admission batch per placement pass; 0 = auto
  // (num_workers * hp_queue_capacity, the paper §6.1 default).
  size_t hp_batch_size = 0;

  // Graceful-degradation knobs (see SchedulerConfig for the state machine).
  int demote_failure_threshold = 3;        // 0 disables
  uint64_t demote_latency_ns = 50'000'000;  // 0 disables; 50 ms
  uint64_t probe_interval_ticks = 10;

  // Interleaving slots per worker (CoroBase-style batch depth): how many
  // resumable low-priority transactions a worker round-robins at once.
  // 1 = classic one-at-a-time execution. Under Wait/Cooperative it also sets
  // how many LP steps run between HP queue checks. Runtime-tunable so the
  // adaptive controller can trade LP throughput (deeper batch) against cache
  // pressure.
  int interleave_slots = 1;
};

class TunableConfig {
 public:
  // A sparse delta: only fields with a value are applied. Built by the
  // controller, by kSetConfig JSON bodies, or directly by tests.
  struct ChangeSet {
    std::optional<bool> starvation_enabled;
    std::optional<double> starvation_threshold;
    std::optional<size_t> hp_batch_size;
    std::optional<int> demote_failure_threshold;
    std::optional<uint64_t> demote_latency_ns;
    std::optional<uint64_t> probe_interval_ticks;
    std::optional<int> interleave_slots;

    bool empty() const {
      return !starvation_enabled && !starvation_threshold && !hp_batch_size &&
             !demote_failure_threshold && !demote_latency_ns &&
             !probe_interval_ticks && !interleave_slots;
    }
  };

  // `auto_hp_batch` resolves hp_batch_size == 0 (num_workers *
  // hp_queue_capacity for the owning scheduler). The seed must pass
  // Validate(); construction asserts it.
  TunableConfig(const TunableValues& seed, size_t auto_hp_batch);
  PDB_DISALLOW_COPY_AND_ASSIGN(TunableConfig);

  // --- Hot-path reads (one relaxed atomic load each) ---
  bool starvation_enabled() const {
    return starvation_enabled_.load(std::memory_order_relaxed);
  }
  double starvation_threshold() const {
    return starvation_threshold_.load(std::memory_order_relaxed);
  }
  // An enabled threshold of 0 (paper §6.4): HP work is never run by
  // preemption, only on the regular path between low-priority rounds.
  bool regular_path_hp_only() const {
    return starvation_enabled() && starvation_threshold() <= 0;
  }
  size_t hp_batch_size() const {
    return hp_batch_size_.load(std::memory_order_relaxed);
  }
  // hp_batch_size with 0 resolved to the structural auto value.
  size_t EffectiveHpBatch() const {
    size_t b = hp_batch_size();
    return b != 0 ? b : auto_hp_batch_;
  }
  int demote_failure_threshold() const {
    return demote_failure_threshold_.load(std::memory_order_relaxed);
  }
  uint64_t demote_latency_ns() const {
    return demote_latency_ns_.load(std::memory_order_relaxed);
  }
  uint64_t probe_interval_ticks() const {
    return probe_interval_ticks_.load(std::memory_order_relaxed);
  }
  int interleave_slots() const {
    return interleave_slots_.load(std::memory_order_relaxed);
  }

  // Monotonic config generation; starts at 1, bumped once per successful
  // Apply (empty ChangeSets apply successfully without a bump).
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  size_t auto_hp_batch() const { return auto_hp_batch_; }

  // The single mutation path. Validates the candidate produced by laying
  // `cs` over the current values; on any out-of-range field nothing is
  // applied, *err describes the offending field, and the version is
  // unchanged. Thread-safe against concurrent Apply and concurrent reads.
  bool Apply(const ChangeSet& cs, std::string* err = nullptr);

  // Coherent copy of all current values (taken under the writer lock, so
  // never a torn mix of two Apply generations).
  TunableValues Snapshot() const;

  // Range-checks a full value set; used by Apply and on the seed.
  static bool Validate(const TunableValues& v, std::string* err);

  // Emits {"version":N,"auto_hp_batch":M,"effective_hp_batch":K,
  // "tunables":{...}} as the value at the writer's current position.
  void ToJson(obs::JsonWriter& w) const;

  // Parses a flat JSON object ({"starvation_threshold":0.4,...}) into a
  // ChangeSet. Strict: unknown keys, wrong types, and non-integral values
  // for integral knobs are errors — a kSetConfig typo must fail loudly, not
  // silently no-op. Range validation stays in Apply.
  static bool ChangeSetFromJson(std::string_view json, ChangeSet* out,
                                std::string* err);

 private:
  void Store(const TunableValues& v);

  const size_t auto_hp_batch_;

  std::atomic<bool> starvation_enabled_;
  std::atomic<double> starvation_threshold_;
  std::atomic<size_t> hp_batch_size_;
  std::atomic<int> demote_failure_threshold_;
  std::atomic<uint64_t> demote_latency_ns_;
  std::atomic<uint64_t> probe_interval_ticks_;
  std::atomic<int> interleave_slots_;

  std::atomic<uint64_t> version_{1};
  mutable std::mutex write_mu_;
};

}  // namespace preemptdb::sched

#endif  // PREEMPTDB_SCHED_TUNABLE_H_
