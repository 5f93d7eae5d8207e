// Snapshot isolation under preemption: concurrent transfers (short, high
// priority) against full-table audits (long, low priority). The audit must
// always observe a transactionally consistent total — even while its host
// worker is being preempted mid-scan to run transfers.
//
//   $ ./build/examples/bank_audit [--short]
//
// --short makes 500 transfers instead of 3000 (the ctest run). Exits 1 if
// any audit saw an unbalanced total.
#include <atomic>
#include <cstdio>
#include <functional>
#include <cstring>
#include <string_view>

#include "core/preemptdb.h"
#include "util/random.h"

using namespace preemptdb;

namespace {

constexpr int kAccounts = 2000;
constexpr int64_t kInitialBalance = 1000;

std::string_view Payload(const int64_t& v) {
  return std::string_view(reinterpret_cast<const char*>(&v), sizeof(v));
}

int64_t Balance(Slice s) {
  int64_t v;
  std::memcpy(&v, s.data, sizeof(v));
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const bool short_run = argc > 1 && std::string_view(argv[1]) == "--short";
  const int transfers = short_run ? 500 : 3000;
  DB::Options options;
  options.scheduler.policy = sched::Policy::kPreempt;
  options.scheduler.num_workers = 2;
  options.scheduler.arrival_interval_us = 500;
  auto db = DB::Open(options);
  auto* accounts = db->CreateTable("accounts");

  db->Execute([&](engine::Engine& eng) {
    auto* txn = eng.Begin();
    for (int64_t a = 0; a < kAccounts; ++a) {
      PDB_CHECK(IsOk(txn->Insert(accounts, a, Payload(kInitialBalance))));
    }
    return txn->Commit();
  });

  std::atomic<int> audits_ok{0}, audits_bad{0}, transfers_ok{0},
      transfers_aborted{0};
  std::atomic<bool> stop{false};

  // Continuous low-priority audits: sum all balances in one snapshot.
  std::function<void()> submit_audit = [&]() {
    db->Submit(sched::Priority::kLow, [&](engine::Engine& eng) {
      auto* txn = eng.Begin();
      int64_t total = 0;
      txn->Scan(accounts, 0, UINT64_MAX, [&](uint64_t, Slice v) {
        total += Balance(v);
        return true;
      });
      Rc rc = txn->Commit();
      if (IsOk(rc)) {
        if (total == int64_t(kAccounts) * kInitialBalance) {
          audits_ok.fetch_add(1);
        } else {
          audits_bad.fetch_add(1);
          std::printf("!! audit saw inconsistent total %ld\n",
                      static_cast<long>(total));
        }
      }
      if (!stop.load(std::memory_order_acquire)) submit_audit();
      return rc;
    });
  };
  submit_audit();
  submit_audit();

  // High-priority transfers preempting the audits.
  FastRandom rng(11);
  for (int i = 0; i < transfers; ++i) {
    int64_t from = rng.Uniform(0, kAccounts - 1);
    int64_t to = rng.Uniform(0, kAccounts - 1);
    if (from == to) continue;
    int64_t amount = rng.Uniform(1, 50);
    Rc rc = db->SubmitAndWait(
        sched::Priority::kHigh, [&, from, to, amount](engine::Engine& eng) {
          auto* txn = eng.Begin();
          Slice s;
          Rc r = txn->Read(accounts, from, &s);
          if (!IsOk(r)) return (txn->Abort(), r);
          int64_t bf = Balance(s) - amount;
          r = txn->Read(accounts, to, &s);
          if (!IsOk(r)) return (txn->Abort(), r);
          int64_t bt = Balance(s) + amount;
          if (!IsOk(r = txn->Update(accounts, from, Payload(bf))) ||
              !IsOk(r = txn->Update(accounts, to, Payload(bt)))) {
            return (txn->Abort(), r);
          }
          return txn->Commit();
        });
    if (IsOk(rc)) {
      transfers_ok.fetch_add(1);
    } else {
      transfers_aborted.fetch_add(1);  // write-write conflict: fine under SI
    }
  }
  stop.store(true);
  db->Drain();

  std::printf("transfers committed: %d, aborted on conflict: %d\n",
              transfers_ok.load(), transfers_aborted.load());
  std::printf("audits consistent: %d, inconsistent: %d\n", audits_ok.load(),
              audits_bad.load());
  if (audits_bad.load() == 0) {
    std::printf("OK: every audit snapshot balanced to %ld\n",
                static_cast<long>(int64_t(kAccounts) * kInitialBalance));
    return 0;
  }
  return 1;
}
