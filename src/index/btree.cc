#include "index/btree.h"

#include <algorithm>

#include "uintr/uintr.h"

namespace preemptdb::index {

using internal::InnerNode;
using internal::kInnerCapacity;
using internal::kLeafCapacity;
using internal::LeafNode;
using internal::NodeBase;

namespace {

// Routing convention: child i of an inner node covers keys in
// [keys[i-1], keys[i]), i.e., ChildIndex is the first i with key < keys[i].
// The searches may run on unlatched nodes, so each key is read through
// OptimisticLoad (the algorithm itself only forms references).
int UpperBoundIdx(const Key* keys, int count, Key k) {
  auto not_above = [k](const Key& x) { return OptimisticLoad(x) <= k; };
  return static_cast<int>(
      std::partition_point(keys, keys + count, not_above) - keys);
}

int LowerBoundIdx(const Key* keys, int count, Key k) {
  auto below = [k](const Key& x) { return OptimisticLoad(x) < k; };
  return static_cast<int>(std::partition_point(keys, keys + count, below) -
                          keys);
}

// Shifts a[from, n) of a reachable node one slot right, to a[from + 1, n].
template <typename T>
void ShiftRight(T* a, int from, int n) {
  for (int i = n; i > from; --i) LatchedStore(a[i], a[i - 1]);
}

// Shifts a[at + 1, n) of a reachable node one slot left, over a[at].
template <typename T>
void ShiftLeft(T* a, int at, int n) {
  for (int i = at; i + 1 < n; ++i) LatchedStore(a[i], a[i + 1]);
}

}  // namespace

namespace internal {

int LeafNode::LowerBound(Key k) const {
  return LowerBoundIdx(keys, OptimisticLoad(count), k);
}

LeafNode* LeafNode::Split(Key key, Key* sep) {
  auto* right = new LeafNode();
  int mid = SplitPoint(key > keys[count - 1]);
  right->count = static_cast<uint16_t>(count - mid);
  std::copy(keys + mid, keys + count, right->keys);
  std::copy(values + mid, values + count, right->values);
  LatchedStore(count, static_cast<uint16_t>(mid));
  *sep = right->keys[0];
  return right;
}

int InnerNode::ChildIndex(Key k) const {
  return UpperBoundIdx(keys, OptimisticLoad(count), k);
}

void InnerNode::InsertChild(Key sep, NodeBase* child) {
  PDB_DCHECK(!IsFull());
  int pos = LowerBoundIdx(keys, count, sep);
  ShiftRight(keys, pos, count);
  ShiftRight(children, pos + 1, count + 1);
  LatchedStore(keys[pos], sep);
  LatchedStore(children[pos + 1], child);
  NoteInsertAt(pos);
  LatchedStore(count, static_cast<uint16_t>(count + 1));
}

InnerNode* InnerNode::Split(Key key, Key* sep) {
  auto* right = new InnerNode();
  int mid = SplitPoint(key > keys[count - 1]);
  *sep = keys[mid];
  right->count = static_cast<uint16_t>(count - mid - 1);
  std::copy(keys + mid + 1, keys + count, right->keys);
  std::copy(children + mid + 1, children + count + 1, right->children);
  LatchedStore(count, static_cast<uint16_t>(mid));
  return right;
}

}  // namespace internal

BTree::BTree() { root_.store(new LeafNode()); }

BTree::~BTree() { FreeSubtree(root_.load()); }

void BTree::FreeSubtree(NodeBase* node) {
  if (!node->IsLeaf()) {
    auto* inner = static_cast<InnerNode*>(node);
    for (int i = 0; i <= inner->count; ++i) FreeSubtree(inner->children[i]);
    delete inner;
  } else {
    delete static_cast<LeafNode*>(node);
  }
}

BTree::Shape BTree::ComputeShape() const {
  Shape shape;
  std::function<void(const NodeBase*, int)> walk = [&](const NodeBase* node,
                                                       int depth) {
    shape.height = std::max(shape.height, depth);
    if (node->IsLeaf()) {
      ++shape.leaves;
      shape.leaf_entries += node->count;
      return;
    }
    auto* inner = static_cast<const InnerNode*>(node);
    for (int i = 0; i <= inner->count; ++i) walk(inner->children[i], depth + 1);
  };
  walk(root_.load(std::memory_order_acquire), 1);
  return shape;
}

bool BTree::LookupOnce(Key key, Value* value, bool* ok) const {
  NodeBase* node = root_.load(std::memory_order_acquire);
  uint64_t v = node->latch.ReadLock();
  if (node != root_.load(std::memory_order_acquire)) return false;
  while (!node->IsLeaf()) {
    auto* inner = static_cast<const InnerNode*>(node);
    NodeBase* child = OptimisticLoad(inner->children[inner->ChildIndex(key)]);
    if (!node->latch.Validate(v)) return false;
    uint64_t cv = child->latch.ReadLock();
    if (!node->latch.Validate(v)) return false;
    node = child;
    v = cv;
  }
  auto* leaf = static_cast<const LeafNode*>(node);
  int pos = leaf->LowerBound(key);
  bool found = pos < OptimisticLoad(leaf->count) &&
               OptimisticLoad(leaf->keys[pos]) == key;
  Value val = found ? OptimisticLoad(leaf->values[pos]) : 0;
  if (!node->latch.Validate(v)) return false;
  *ok = found;
  if (found) *value = val;
  return true;
}

bool BTree::Lookup(Key key, Value* value) const {
  uintr::NonPreemptibleRegion guard;
  bool found = false;
  while (!LookupOnce(key, value, &found)) CpuPause();
  return found;
}

int BTree::PrefetchLookup(Key key) const {
  uintr::NonPreemptibleRegion guard;
  int issued = 0;
  NodeBase* node = root_.load(std::memory_order_acquire);
  uint64_t v = node->latch.ReadLock();
  if (node != root_.load(std::memory_order_acquire)) return issued;
  while (!node->IsLeaf()) {
    auto* inner = static_cast<const InnerNode*>(node);
    NodeBase* child = OptimisticLoad(inner->children[inner->ChildIndex(key)]);
    if (!node->latch.Validate(v)) return issued;  // racing writer: give up
    // Prefetch before the child's latch read so the line is (ideally) in
    // flight by the time ReadLock touches it.
    __builtin_prefetch(static_cast<const void*>(child), 0, 3);
    ++issued;
    uint64_t cv = child->latch.ReadLock();
    if (!node->latch.Validate(v)) return issued;
    node = child;
    v = cv;
  }
  return issued;
}

bool BTree::InsertOnce(Key key, Value value, bool upsert, bool* inserted) {
  NodeBase* node = root_.load(std::memory_order_acquire);
  uint64_t v = node->latch.ReadLock();
  if (node != root_.load(std::memory_order_acquire)) return false;

  InnerNode* parent = nullptr;
  uint64_t pv = 0;

  while (!node->IsLeaf()) {
    auto* inner = static_cast<InnerNode*>(node);
    if (inner->IsFull()) {
      // Eager split on the way down guarantees the parent has room when a
      // child splits (classic top-down B+-tree with OLC).
      if (parent != nullptr && !parent->latch.TryUpgrade(pv)) return false;
      if (!inner->latch.TryUpgrade(v)) {
        if (parent != nullptr) parent->latch.WriteUnlock();
        return false;
      }
      if (parent == nullptr &&
          node != root_.load(std::memory_order_acquire)) {
        inner->latch.WriteUnlock();
        return false;
      }
      Key sep;
      InnerNode* right = inner->Split(key, &sep);
      if (parent != nullptr) {
        parent->InsertChild(sep, right);
        parent->latch.WriteUnlock();
      } else {
        auto* new_root = new InnerNode();
        new_root->count = 1;
        new_root->keys[0] = sep;
        new_root->children[0] = inner;
        new_root->children[1] = right;
        root_.store(new_root, std::memory_order_release);
      }
      inner->latch.WriteUnlock();
      return false;  // restart with more room
    }
    if (parent != nullptr && !parent->latch.Validate(pv)) return false;
    parent = inner;
    pv = v;
    NodeBase* child = OptimisticLoad(inner->children[inner->ChildIndex(key)]);
    if (!inner->latch.Validate(v)) return false;
    uint64_t cv = child->latch.ReadLock();
    if (!inner->latch.Validate(v)) return false;
    node = child;
    v = cv;
  }

  auto* leaf = static_cast<LeafNode*>(node);
  if (leaf->IsFull()) {
    if (parent != nullptr && !parent->latch.TryUpgrade(pv)) return false;
    if (!leaf->latch.TryUpgrade(v)) {
      if (parent != nullptr) parent->latch.WriteUnlock();
      return false;
    }
    if (parent == nullptr && node != root_.load(std::memory_order_acquire)) {
      leaf->latch.WriteUnlock();
      return false;
    }
    // The key may already exist even in a full leaf: handle without split.
    int pos = leaf->LowerBound(key);
    if (pos < leaf->count && leaf->keys[pos] == key) {
      if (upsert) LatchedStore(leaf->values[pos], value);
      if (parent != nullptr) parent->latch.WriteUnlock();
      leaf->latch.WriteUnlock();
      *inserted = false;
      return true;
    }
    Key sep;
    LeafNode* right = leaf->Split(key, &sep);
    if (parent != nullptr) {
      parent->InsertChild(sep, right);
      parent->latch.WriteUnlock();
    } else {
      auto* new_root = new InnerNode();
      new_root->count = 1;
      new_root->keys[0] = sep;
      new_root->children[0] = leaf;
      new_root->children[1] = right;
      root_.store(new_root, std::memory_order_release);
    }
    leaf->latch.WriteUnlock();
    return false;  // restart into the correct half
  }

  if (parent != nullptr && !parent->latch.Validate(pv)) return false;
  if (!leaf->latch.TryUpgrade(v)) return false;
  int pos = leaf->LowerBound(key);
  if (pos < leaf->count && leaf->keys[pos] == key) {
    if (upsert) LatchedStore(leaf->values[pos], value);
    leaf->latch.WriteUnlock();
    *inserted = false;
    return true;
  }
  ShiftRight(leaf->keys, pos, leaf->count);
  ShiftRight(leaf->values, pos, leaf->count);
  LatchedStore(leaf->keys[pos], key);
  LatchedStore(leaf->values[pos], value);
  leaf->NoteInsertAt(pos);
  LatchedStore(leaf->count, static_cast<uint16_t>(leaf->count + 1));
  leaf->latch.WriteUnlock();
  *inserted = true;
  return true;
}

bool BTree::Insert(Key key, Value value) {
  uintr::NonPreemptibleRegion guard;
  bool inserted = false;
  while (!InsertOnce(key, value, /*upsert=*/false, &inserted)) CpuPause();
  if (inserted) size_.fetch_add(1, std::memory_order_relaxed);
  return inserted;
}

bool BTree::Upsert(Key key, Value value) {
  uintr::NonPreemptibleRegion guard;
  bool inserted = false;
  while (!InsertOnce(key, value, /*upsert=*/true, &inserted)) CpuPause();
  if (inserted) size_.fetch_add(1, std::memory_order_relaxed);
  return inserted;
}

bool BTree::RemoveOnce(Key key, bool* removed) {
  NodeBase* node = root_.load(std::memory_order_acquire);
  uint64_t v = node->latch.ReadLock();
  if (node != root_.load(std::memory_order_acquire)) return false;
  while (!node->IsLeaf()) {
    auto* inner = static_cast<InnerNode*>(node);
    NodeBase* child = OptimisticLoad(inner->children[inner->ChildIndex(key)]);
    if (!node->latch.Validate(v)) return false;
    uint64_t cv = child->latch.ReadLock();
    if (!node->latch.Validate(v)) return false;
    node = child;
    v = cv;
  }
  auto* leaf = static_cast<LeafNode*>(node);
  int pos = leaf->LowerBound(key);
  if (pos >= OptimisticLoad(leaf->count) ||
      OptimisticLoad(leaf->keys[pos]) != key) {
    if (!leaf->latch.Validate(v)) return false;
    *removed = false;
    return true;
  }
  if (!leaf->latch.TryUpgrade(v)) return false;
  ShiftLeft(leaf->keys, pos, leaf->count);
  ShiftLeft(leaf->values, pos, leaf->count);
  LatchedStore(leaf->count, static_cast<uint16_t>(leaf->count - 1));
  leaf->latch.WriteUnlock();
  *removed = true;
  return true;
}

bool BTree::Remove(Key key) {
  uintr::NonPreemptibleRegion guard;
  bool removed = false;
  while (!RemoveOnce(key, &removed)) CpuPause();
  if (removed) size_.fetch_sub(1, std::memory_order_relaxed);
  return removed;
}

// One validated leaf snapshot plus the continuation key derived from the
// separators on the descent path.
struct BTree::ScanChunk {
  Key keys[internal::kLeafCapacity];
  Value values[internal::kLeafCapacity];
  int n = 0;
  bool has_next = false;
  Key next = 0;  // continuation key (ascending: > every emitted key)
};

bool BTree::CollectChunk(Key from, bool ascending, ScanChunk* out) const {
  NodeBase* node = root_.load(std::memory_order_acquire);
  uint64_t v = node->latch.ReadLock();
  if (node != root_.load(std::memory_order_acquire)) return false;
  bool has_cont = false;
  Key cont = 0;
  while (!node->IsLeaf()) {
    auto* inner = static_cast<const InnerNode*>(node);
    int idx = inner->ChildIndex(from);
    if (ascending) {
      // Smallest separator > from on the path bounds the successor leaf.
      if (idx < OptimisticLoad(inner->count)) {
        has_cont = true;
        cont = OptimisticLoad(inner->keys[idx]);
      }
    } else {
      // Largest separator <= from bounds the predecessor leaf.
      if (idx > 0) {
        has_cont = true;
        cont = OptimisticLoad(inner->keys[idx - 1]);  // next from cont - 1
      }
    }
    NodeBase* child = OptimisticLoad(inner->children[idx]);
    if (!node->latch.Validate(v)) return false;
    uint64_t cv = child->latch.ReadLock();
    if (!node->latch.Validate(v)) return false;
    node = child;
    v = cv;
  }
  auto* leaf = static_cast<const LeafNode*>(node);
  out->n = 0;
  if (ascending) {
    const int count = OptimisticLoad(leaf->count);
    for (int i = leaf->LowerBound(from); i < count; ++i) {
      out->keys[out->n] = OptimisticLoad(leaf->keys[i]);
      out->values[out->n] = OptimisticLoad(leaf->values[i]);
      ++out->n;
    }
    out->has_next = has_cont;
    out->next = cont;
  } else {
    int end = leaf->LowerBound(from);
    if (end < OptimisticLoad(leaf->count) &&
        OptimisticLoad(leaf->keys[end]) == from) {
      ++end;  // include from
    }
    for (int i = end - 1; i >= 0; --i) {
      out->keys[out->n] = OptimisticLoad(leaf->keys[i]);
      out->values[out->n] = OptimisticLoad(leaf->values[i]);
      ++out->n;
    }
    out->has_next = has_cont && cont > 0;
    out->next = has_cont ? cont - 1 : 0;
  }
  return node->latch.Validate(v);
}

void BTree::Scan(Key begin, Key end, const ScanCallback& cb) const {
  Key from = begin;
  while (true) {
    ScanChunk chunk;
    bool ok;
    {
      // Only the latch-sensitive chunk collection is non-preemptible; the
      // callbacks run preemptible so long scans (the paper's Q2) can be
      // interrupted between leaves.
      uintr::NonPreemptibleRegion guard;
      ok = CollectChunk(from, /*ascending=*/true, &chunk);
    }
    if (!ok) {
      CpuPause();
      continue;
    }
    for (int i = 0; i < chunk.n; ++i) {
      if (chunk.keys[i] > end) return;
      if (!cb(chunk.keys[i], chunk.values[i])) return;
    }
    if (!chunk.has_next || chunk.next > end) return;
    from = chunk.next;
  }
}

void BTree::ScanReverse(Key begin, Key end, const ScanCallback& cb) const {
  Key from = end;
  while (true) {
    ScanChunk chunk;
    bool ok;
    {
      uintr::NonPreemptibleRegion guard;
      ok = CollectChunk(from, /*ascending=*/false, &chunk);
    }
    if (!ok) {
      CpuPause();
      continue;
    }
    for (int i = 0; i < chunk.n; ++i) {
      if (chunk.keys[i] < begin) return;
      if (!cb(chunk.keys[i], chunk.values[i])) return;
    }
    if (!chunk.has_next || chunk.next < begin) return;
    from = chunk.next;
  }
}

}  // namespace preemptdb::index
