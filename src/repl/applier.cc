#include "repl/applier.h"

#include <cstring>

#include "engine/table.h"
#include "obs/metrics.h"
#include "util/crc32c.h"

namespace preemptdb::repl {

namespace {
obs::Counter g_apply_chunks("repl.apply.chunks");
obs::Counter g_apply_txns("repl.apply.txns");
obs::Counter g_apply_records("repl.apply.records");
obs::Counter g_apply_skipped("repl.apply.skipped_records");
}  // namespace

bool ValidateFrames(const char* data, size_t n, ChunkInfo* info) {
  *info = ChunkInfo{};
  size_t pos = 0;
  while (pos + sizeof(engine::SegmentHeader) <= n) {
    engine::SegmentHeader sh;
    std::memcpy(&sh, data + pos, sizeof(sh));
    if (sh.magic != engine::kSegmentMagic) break;
    if (pos + sizeof(sh) + sh.length > n) break;  // frame straddles the end
    uint32_t crc = util::Crc32c(0, data + pos, engine::kSegmentCrcPrefix);
    if (sh.length > 0) {
      crc = util::Crc32c(crc, data + pos + sizeof(sh), sh.length);
    }
    if (crc != sh.crc32c) break;
    ++info->frames;
    if (sh.commit_seq > info->max_seq) info->max_seq = sh.commit_seq;
    pos += sizeof(sh) + sh.length;
  }
  info->valid_bytes = pos;
  return pos == n;
}

uint64_t ScanValidLogEnd(const std::string& path, uint64_t from_off) {
  // Read-and-walk, same as recovery's segment loop; the file is cold (no
  // writer yet — this runs before the engine opens it).
  std::string log;
  {
    FILE* f = ::fopen(path.c_str(), "rb");
    if (f == nullptr) return from_off;
    char buf[1 << 16];
    size_t got;
    while ((got = ::fread(buf, 1, sizeof(buf), f)) > 0) log.append(buf, got);
    ::fclose(f);
  }
  if (log.size() <= from_off) return from_off;
  ChunkInfo info;
  ValidateFrames(log.data() + from_off, log.size() - from_off, &info);
  return from_off + info.valid_bytes;
}

bool Applier::ApplyChunk(const char* data, size_t n) {
  // Suppress DDL re-logging while this chunk applies (see
  // Engine::SetReplicaApply).
  engine_->SetReplicaApply(true);
  size_t pos = 0;
  bool ok = true;
  while (pos + sizeof(engine::SegmentHeader) <= n) {
    engine::SegmentHeader sh;
    std::memcpy(&sh, data + pos, sizeof(sh));
    if (sh.magic != engine::kSegmentMagic ||
        pos + sizeof(sh) + sh.length > n) {
      ok = false;
      break;
    }
    const char* rp = data + pos + sizeof(sh);
    size_t left = sh.length;
    auto& group = pending_[sh.commit_seq];
    while (left > 0) {
      if (left < sizeof(engine::LogRecordHeader)) {
        ok = false;
        break;
      }
      engine::LogRecordHeader rh;
      std::memcpy(&rh, rp, sizeof(rh));
      if (sizeof(rh) + rh.size > left) {
        ok = false;
        break;
      }
      group.push_back(
          PendingRecord{rh, std::string(rp + sizeof(rh), rh.size)});
      rp += sizeof(rh) + rh.size;
      left -= sizeof(rh) + rh.size;
    }
    if (!ok) break;
    if (sh.flags & engine::kSegTxnEnd) {
      for (const PendingRecord& r : group) {
        ApplyRecord(sh.commit_seq, r.hdr, r.payload.data());
      }
      pending_.erase(sh.commit_seq);
      // Publish the whole transaction at once: only now do new read
      // snapshots on this replica include it.
      if (sh.commit_seq > 0) {
        engine_->AdvanceTs(sh.commit_seq);
        g_apply_txns.Add();
        uint64_t prev = applied_seq_.load(std::memory_order_relaxed);
        if (sh.commit_seq > prev) {
          applied_seq_.store(sh.commit_seq, std::memory_order_release);
        }
      }
    }
    pos += sizeof(sh) + sh.length;
  }
  engine_->SetReplicaApply(false);
  g_apply_chunks.Add();
  return ok && pos == n;
}

void Applier::ApplyRecord(uint64_t seq, const engine::LogRecordHeader& h,
                          const char* payload) {
  using engine::LogRecordKind;
  switch (static_cast<LogRecordKind>(h.kind)) {
    case LogRecordKind::kTableCreate: {
      if (engine_->TableAt(h.table_id) != nullptr) return;  // bootstrapped
      engine::Table* t = engine_->CreateTable(std::string(payload, h.size));
      PDB_CHECK(t->id() == h.table_id);
      return;
    }
    case LogRecordKind::kSecondaryCreate: {
      engine::Table* t = engine_->TableAt(h.table_id);
      if (t == nullptr) {
        g_apply_skipped.Add();
        return;
      }
      if (h.sec_ordinal < t->SecondaryCount()) return;  // already there
      PDB_CHECK(h.sec_ordinal == t->SecondaryCount());
      t->CreateSecondaryIndex(std::string(payload, h.size));
      return;
    }
    case LogRecordKind::kData: {
      engine::Table* t = engine_->TableAt(h.table_id);
      if (t == nullptr) {
        g_apply_skipped.Add();
        return;
      }
      t->oids().ReserveUpTo(h.oid + 1);
      engine::Version* head =
          t->Head(h.oid).load(std::memory_order_acquire);
      // Same dedup rule as recovery: an installed newer state wins; equal
      // timestamps re-apply (covers a later write of the same txn).
      if (head != nullptr &&
          head->clsn.load(std::memory_order_acquire) > seq) {
        return;
      }
      engine::Version* v = engine::Version::Make(nullptr, payload, h.size,
                                                 h.deleted != 0, head);
      v->clsn.store(seq, std::memory_order_release);
      // Release: a concurrent replica reader that loads this head must see
      // the version fully built (recovery can use relaxed; we cannot).
      t->Head(h.oid).store(v, std::memory_order_release);
      t->primary().Upsert(h.key, h.oid);
      g_apply_records.Add();
      return;
    }
    case LogRecordKind::kSecondaryUpsert: {
      engine::Table* t = engine_->TableAt(h.table_id);
      if (t == nullptr || h.sec_ordinal >= t->SecondaryCount()) {
        g_apply_skipped.Add();
        return;
      }
      t->SecondaryAt(h.sec_ordinal)->Upsert(h.key, h.oid);
      g_apply_records.Add();
      return;
    }
  }
  g_apply_skipped.Add();
}

}  // namespace preemptdb::repl
