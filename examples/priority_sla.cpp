// Starvation prevention in practice (paper §5): a flood of high-priority
// requests would starve analytics entirely; the starvation threshold L_max
// bounds the share of CPU cycles preemption may take from an in-progress
// low-priority transaction.
//
// The example overloads a PreemptDB instance with high-priority point reads
// under three thresholds and shows the analytics-vs-point-read tradeoff.
//
//   $ ./build/examples/priority_sla [--short]
//
// --short floods for 0.2 s per threshold instead of 1.5 s (the ctest run).
#include <atomic>
#include <cstdio>
#include <functional>
#include <string_view>

#include "core/preemptdb.h"
#include "engine/hooks.h"
#include "util/clock.h"
#include "util/random.h"

using namespace preemptdb;

namespace {

constexpr uint64_t kRows = 20000;

void Load(DB& db, engine::Table* t) {
  db.Execute([&](engine::Engine& eng) {
    auto* txn = eng.Begin();
    for (uint64_t k = 0; k < kRows; ++k) {
      uint64_t v = k * 31;
      PDB_CHECK(IsOk(txn->Insert(
          t, k,
          std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)))));
      if (k % 2000 == 1999) {
        PDB_CHECK(IsOk(txn->Commit()));
        txn = eng.Begin();
      }
    }
    return txn->Commit();
  });
}

void RunWithThreshold(double threshold, uint64_t flood_ns) {
  DB::Options options;
  options.scheduler.policy = sched::Policy::kPreempt;
  options.scheduler.num_workers = 2;
  options.scheduler.hp_queue_capacity = 64;
  options.scheduler.arrival_interval_us = 200;
  // threshold < 0 selects the explicit "prevention off" state (formerly the
  // magic ">= 100" sentinel).
  if (threshold >= 0) {
    options.scheduler.tunables.starvation_enabled = true;
    options.scheduler.tunables.starvation_threshold = threshold;
  }
  auto db = DB::Open(options);
  auto* t = db->CreateTable("data");
  Load(*db, t);

  std::atomic<uint64_t> scans_done{0};
  std::atomic<uint64_t> reads_done{0};
  std::atomic<bool> stop{false};

  // Analytics: repeated full scans, submitted as low priority.
  std::function<void()> submit_scan = [&]() {
    db->Submit(sched::Priority::kLow, [&, t](engine::Engine& eng) {
      auto* txn = eng.Begin();
      uint64_t sum = 0;
      txn->Scan(t, 0, UINT64_MAX, [&](uint64_t, Slice v) {
        uint64_t x;
        std::memcpy(&x, v.data, sizeof(x));
        sum += x;
        return true;
      });
      Rc rc = txn->Commit();
      if (IsOk(rc)) scans_done.fetch_add(1);
      if (!stop.load(std::memory_order_acquire)) submit_scan();
      return rc;
    });
  };
  submit_scan();
  submit_scan();

  // Flood of high-priority point reads.
  FastRandom rng(5);
  uint64_t deadline = MonoNanos() + flood_ns;
  while (MonoNanos() < deadline) {
    uint64_t key = rng.UniformU64(0, kRows - 1);
    db->Submit(sched::Priority::kHigh, [&, t, key](engine::Engine& eng) {
      auto* txn = eng.Begin();
      Slice s;
      Rc rc = txn->Read(t, key, &s);
      txn->Commit();
      if (IsOk(rc)) reads_done.fetch_add(1);
      return rc;
    });
  }
  stop.store(true);
  db->Drain();
  char label[16];
  if (threshold >= 0) {
    std::snprintf(label, sizeof(label), "%-6g", threshold);
  } else {
    std::snprintf(label, sizeof(label), "%-6s", "off");
  }
  std::printf("L_max=%s  analytics scans: %4lu   point reads: %8lu\n",
              label, static_cast<unsigned long>(scans_done.load()),
              static_cast<unsigned long>(reads_done.load()));
}

}  // namespace

int main(int argc, char** argv) {
  const bool short_run = argc > 1 && std::string_view(argv[1]) == "--short";
  const uint64_t flood_ns = short_run ? 200000000ull : 1500000000ull;
  std::printf("# starvation threshold sweep under point-read overload\n");
  RunWithThreshold(-1.0, flood_ns);  // prevention off: analytics starve
  RunWithThreshold(0.5, flood_ns);   // balanced
  RunWithThreshold(0.0, flood_ns);   // no preemption: analytics max out
  std::printf(
      "# lower thresholds protect analytics throughput at the cost of "
      "point-read latency/volume\n");
  return 0;
}
