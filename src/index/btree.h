// In-memory B+-tree with optimistic lock coupling (OLC), mapping fixed-width
// 64-bit keys to OIDs. This is the table access method of the ERMIA-style
// substrate (paper §2.2): readers traverse latch-free with version
// validation; writers latch individual nodes only around modification.
//
// Preemption safety (paper §4.4): every public operation executes inside a
// non-preemptible region. A transaction preempted while holding a node latch
// would deadlock the preemptive context of the same thread (a reader spinning
// on ReadLock can never make progress because the latch holder is paused on
// the same core), which is exactly the scenario the paper's TCB::lock()
// machinery exists to prevent.
#ifndef PREEMPTDB_INDEX_BTREE_H_
#define PREEMPTDB_INDEX_BTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "util/latch.h"
#include "util/macros.h"

namespace preemptdb::index {

using Key = uint64_t;
using Value = uint64_t;

namespace internal {

inline constexpr int kLeafCapacity = 64;
inline constexpr int kInnerCapacity = 64;
// Past-the-end inserts in a row that mark a node as taking an ascending
// stream. A random insert lands past the end of a 64-entry node about once
// in 65, so a random past-the-end split key that follows two more such
// inserts is about 1 in 275k splits.
inline constexpr int kAscendingRun = 2;

enum class NodeType : uint8_t { kInner, kLeaf };

struct NodeBase {
  OptLatch latch;
  NodeType type;
  // Consecutive inserts into this node that landed past every entry it had
  // (saturating). Marks an ascending stream for the split rule (see
  // LeafNode::Split). Written under the node's write latch.
  uint8_t append_run = 0;
  uint16_t count = 0;

  // Records an insert at `pos` (before `count` grows).
  void NoteInsertAt(int pos) {
    if (pos < count) {
      append_run = 0;
    } else if (append_run < UINT8_MAX) {
      ++append_run;
    }
  }
  // Index to split this full node at, for an insert that sorts past every
  // entry iff `past_end`: the right edge in an ascending stream, else the
  // middle.
  int SplitPoint(bool past_end) const {
    return past_end && append_run >= kAscendingRun ? count - 1 : count / 2;
  }

  explicit NodeBase(NodeType t) : type(t) {}
  bool IsLeaf() const { return type == NodeType::kLeaf; }
};

struct LeafNode : NodeBase {
  Key keys[kLeafCapacity];
  Value values[kLeafCapacity];

  LeafNode() : NodeBase(NodeType::kLeaf) {}
  bool IsFull() const { return OptimisticLoad(count) == kLeafCapacity; }
  // Index of first key >= k. Optimistic: validate the latch before use.
  int LowerBound(Key k) const;
  // Splits this (locked, full) leaf on behalf of an insert of `key`;
  // returns the new right sibling and its separator key (first key of the
  // right node). When `key` sorts past every entry and so did the last
  // kAscendingRun inserts (an ascending stream), the split is at the right
  // edge: the right node gets only the last entry, so the stream leaves
  // its leaves 63/64 full instead of half full. Any other insert splits at
  // the middle. (A lone past-the-end key is not enough: random inserts
  // land there about once per 65 splits, and a right-edge split there
  // lowers random-order fill.)
  LeafNode* Split(Key key, Key* sep);
};

struct InnerNode : NodeBase {
  // count separator keys, count+1 children.
  Key keys[kInnerCapacity];
  NodeBase* children[kInnerCapacity + 1];

  InnerNode() : NodeBase(NodeType::kInner) {}
  bool IsFull() const { return OptimisticLoad(count) == kInnerCapacity; }
  // The child covering `k`. Optimistic: validate the latch before use.
  int ChildIndex(Key k) const;
  void InsertChild(Key sep, NodeBase* child);
  // Same split rule as LeafNode::Split: in an ascending stream only the
  // last child moves right (the new node starts with no separator).
  InnerNode* Split(Key key, Key* sep);
};

}  // namespace internal

class BTree {
 public:
  BTree();
  ~BTree();
  PDB_DISALLOW_COPY_AND_ASSIGN(BTree);

  // Returns false if the key is absent.
  bool Lookup(Key key, Value* value) const;

  // Best-effort cache warm-up for a later operation on `key`: descends the
  // tree once, issuing a __builtin_prefetch per node on the path, and gives
  // up (no retry) on any optimistic-latch conflict — it is a hint, not a
  // read. Returns the number of prefetches issued. Used by the staged
  // (prefetch-then-access) transaction API so an interleaved transaction can
  // warm the descent path, yield its slot, and redo the now-cached walk on
  // resume.
  int PrefetchLookup(Key key) const;

  // Inserts key->value; returns false (no change) if the key exists.
  bool Insert(Key key, Value value);

  // Unconditional upsert; returns true if a new key was inserted.
  bool Upsert(Key key, Value value);

  // Removes the key; returns false if absent. Leaves may become underfull
  // (no rebalancing — standard for memory-optimized research engines).
  bool Remove(Key key);

  // In-order scan over [begin, end]; the callback returns false to stop.
  // The iteration is a sequence of optimistic leaf snapshots: each leaf's
  // content is validated before its entries are emitted, so the scan never
  // emits torn data, though it may miss/duplicate entries racing with
  // concurrent splits of *later* leaves (snapshot-consistency at the record
  // level is the MVCC layer's job, not the index's).
  using ScanCallback = std::function<bool(Key, Value)>;
  void Scan(Key begin, Key end, const ScanCallback& cb) const;

  // Descending scan over [begin, end], starting at end.
  void ScanReverse(Key begin, Key end, const ScanCallback& cb) const;

  uint64_t Size() const { return size_.load(std::memory_order_relaxed); }

  // Leaf census from a full walk (tests check the split rule with it). Not
  // synchronized with writers: call it on a quiescent tree.
  struct Shape {
    uint64_t leaves = 0;
    uint64_t leaf_entries = 0;
    int height = 0;  // levels, a lone root leaf is 1
  };
  Shape ComputeShape() const;

 private:
  struct ScanChunk;
  bool LookupOnce(Key key, Value* value, bool* ok) const;
  bool InsertOnce(Key key, Value value, bool upsert, bool* inserted);
  bool RemoveOnce(Key key, bool* removed);
  // Collects one leaf's worth of entries with key >= from (ascending) or
  // key <= from (descending). Returns false on a version conflict (retry).
  bool CollectChunk(Key from, bool ascending, ScanChunk* out) const;
  void FreeSubtree(internal::NodeBase* node);

  std::atomic<internal::NodeBase*> root_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace preemptdb::index

#endif  // PREEMPTDB_INDEX_BTREE_H_
