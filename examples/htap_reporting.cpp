// The paper's introduction scenario: an e-commerce system running heavy
// operational-reporting jobs (long, low priority) alongside latency-critical
// sales transactions (short, high priority) on the same engine.
//
// The example runs the same mix twice — non-preemptive FIFO ("Wait") and
// PreemptDB — and prints the sales-transaction latency profile for each,
// demonstrating why preemption matters for mixed HTAP workloads.
//
//   $ ./build/examples/htap_reporting [--short]
//
// --short times 20 sales per policy instead of 100 (the ctest run).
#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "core/preemptdb.h"
#include "util/clock.h"
#include "util/histogram.h"
#include "util/random.h"

using namespace preemptdb;

namespace {

constexpr uint64_t kProducts = 20000;

struct SaleRow {
  uint64_t product;
  uint64_t quantity;
  uint64_t cents;
};

void LoadCatalog(DB& db, engine::Table* products) {
  db.Execute([&](engine::Engine& eng) {
    FastRandom rng(7);
    auto* txn = eng.Begin();
    for (uint64_t p = 1; p <= kProducts; ++p) {
      uint64_t price_cents = rng.UniformU64(100, 99999);
      std::string payload(reinterpret_cast<const char*>(&price_cents),
                          sizeof(price_cents));
      PDB_CHECK(IsOk(txn->Insert(products, p, payload)));
      if (p % 1000 == 0) {
        PDB_CHECK(IsOk(txn->Commit()));
        txn = eng.Begin();
      }
    }
    return txn->Commit();
  });
}

// Long reporting job: scans the whole catalog several times, aggregating
// revenue-at-price bands — a stand-in for the "operational reporting" the
// paper's intro describes.
Rc ReportingJob(engine::Engine& eng, engine::Table* products) {
  auto* txn = eng.Begin();
  uint64_t bands[10] = {0};
  for (int pass = 0; pass < 50; ++pass) {
    txn->Scan(products, 0, UINT64_MAX, [&](uint64_t, Slice v) {
      uint64_t cents;
      std::memcpy(&cents, v.data, sizeof(cents));
      bands[cents / 10000]++;
      return true;
    });
  }
  volatile uint64_t sink = bands[0];
  (void)sink;
  return txn->Commit();
}

// Short sales transaction: read product, record sale, update a running
// counter row.
Rc SaleTxn(engine::Engine& eng, engine::Table* products,
           engine::Table* sales, uint64_t id, uint64_t product) {
  auto* txn = eng.Begin();
  Slice s;
  Rc rc = txn->Read(products, product, &s);
  if (!IsOk(rc)) {
    txn->Abort();
    return rc;
  }
  uint64_t cents;
  std::memcpy(&cents, s.data, sizeof(cents));
  SaleRow row{product, 1, cents};
  rc = txn->Insert(sales, id,
                   std::string_view(reinterpret_cast<const char*>(&row),
                                    sizeof(row)));
  if (!IsOk(rc)) {
    txn->Abort();
    return rc;
  }
  return txn->Commit();
}

void RunScenario(sched::Policy policy, const char* label,
                 uint64_t sale_records) {
  DB::Options options;
  options.scheduler.policy = policy;
  options.scheduler.num_workers = 2;
  options.scheduler.arrival_interval_us = 200;
  auto db = DB::Open(options);
  auto* products = db->CreateTable("products");
  auto* sales = db->CreateTable("sales");
  LoadCatalog(*db, products);

  // Keep workers saturated with reporting jobs for the whole run: each job
  // resubmits itself on completion.
  std::atomic<bool> stop{false};
  std::function<void()> submit_report = [&]() {
    db->Submit(sched::Priority::kLow, [&, products](engine::Engine& eng) {
      Rc rc = ReportingJob(eng, products);
      if (!stop.load(std::memory_order_acquire)) submit_report();
      return rc;
    });
  };
  for (int i = 0; i < 4; ++i) submit_report();

  // Fire sales transactions and measure their end-to-end latency.
  LatencyHistogram latency;
  FastRandom rng(42);
  for (uint64_t i = 0; i < sale_records; ++i) {
    uint64_t product = rng.UniformU64(1, kProducts);
    uint64_t t0 = MonoNanos();
    Rc rc = db->SubmitAndWait(
        sched::Priority::kHigh, [&, product, i](engine::Engine& eng) {
          return SaleTxn(eng, products, sales, 1000000 + i, product);
        });
    if (IsOk(rc)) latency.RecordNanos(MonoNanos() - t0);
  }
  stop.store(true);
  db->Drain();
  std::printf("%-10s sales latency: %s (n=%lu)\n", label,
              latency.SummaryMicros().c_str(),
              static_cast<unsigned long>(latency.Count()));
}

}  // namespace

int main(int argc, char** argv) {
  const bool short_run = argc > 1 && std::string_view(argv[1]) == "--short";
  const uint64_t sale_records = short_run ? 20 : 100;
  std::printf(
      "# reporting jobs monopolize workers; sales txns need low latency\n");
  RunScenario(sched::Policy::kWait, "Wait", sale_records);
  RunScenario(sched::Policy::kPreempt, "PreemptDB", sale_records);
  std::printf(
      "# PreemptDB: order-of-magnitude lower median; tails compress on 1-core hosts\n");
  return 0;
}
