//===- FlatMapTest.cpp - Flat hash containers, bitsets, arenas ------------==//
//
// Unit tests for the PR 10 hot-path containers: FlatMap/FlatSet
// (open-addressing tables), NodeBitSet (dense executed-id sets),
// ChunkedArena/SmallVec (heap storage), plus the layout and hashing
// contracts the analysis core depends on: the slim-journal entry size, the
// 16-byte Value POD, and the FactKeyHash bucket-distribution regression.
//
//===----------------------------------------------------------------------===//

#include "determinacy/Facts.h"
#include "determinacy/Journal.h"
#include "interp/Heap.h"
#include "interp/Value.h"
#include "support/Arena.h"
#include "support/BitSet.h"
#include "support/FlatMap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <type_traits>
#include <vector>

using namespace dda;

//===----------------------------------------------------------------------===//
// Layout contracts (static_asserts-as-tests: a regression fails the build).
//===----------------------------------------------------------------------===//

// The vd/pd marking walk streams over journal entries; they must stay slim.
static_assert(sizeof(JournalEntry) <= 16,
              "slim journal entry grew past one sixteen-byte record");
static_assert(std::is_trivially_copyable_v<JournalEntry>,
              "journal entries must be memcpy-able");

// Values are copied on every read/write of the interpreter loop.
static_assert(sizeof(Value) <= 16, "Value must stay a 16-byte POD");
static_assert(std::is_trivially_copyable_v<Value>,
              "Value must stay trivially copyable");

// Fact keys/values live in a flat table; POD-ness is what makes its rehash
// a straight copy loop.
static_assert(std::is_trivially_copyable_v<FactKey> &&
                  std::is_trivially_copyable_v<FactValue>,
              "fact records must stay PODs for the flat fact table");

TEST(Layout, SlimJournalEntryIsSmall) {
  // Runtime mirror of the asserts above, so the contract shows up in test
  // listings (and its failure message names the actual size).
  EXPECT_LE(sizeof(JournalEntry), 16u)
      << "JournalEntry is " << sizeof(JournalEntry) << " bytes";
  EXPECT_LE(sizeof(Value), 16u) << "Value is " << sizeof(Value) << " bytes";
}

//===----------------------------------------------------------------------===//
// FlatMap
//===----------------------------------------------------------------------===//

TEST(FlatMap, InsertFindErase) {
  FlatMap<uint32_t, uint32_t> M;
  EXPECT_TRUE(M.empty());
  for (uint32_t I = 0; I < 100; ++I)
    EXPECT_TRUE(M.try_emplace(I, I * 10).second);
  EXPECT_EQ(M.size(), 100u);
  for (uint32_t I = 0; I < 100; ++I) {
    auto It = M.find(I);
    ASSERT_NE(It, M.end());
    EXPECT_EQ(It->second, I * 10);
  }
  EXPECT_EQ(M.find(100), M.end());
  EXPECT_EQ(M.count(5), 1u);
  EXPECT_FALSE(M.try_emplace(5, 999).second); // No overwrite on re-emplace.
  EXPECT_EQ(M.at(5), 50u);
  EXPECT_EQ(M.erase(5u), 1u);
  EXPECT_EQ(M.erase(5u), 0u);
  EXPECT_EQ(M.find(5), M.end());
  EXPECT_EQ(M.size(), 99u);
}

TEST(FlatMap, OperatorBracketAndOverwrite) {
  FlatMap<uint32_t, uint64_t> M;
  M[7] = 3;
  M[7] += 4;
  EXPECT_EQ(M[7], 7u);
  EXPECT_EQ(M[8], 0u); // Default-constructed on first touch.
  EXPECT_EQ(M.size(), 2u);
}

TEST(FlatMap, TombstoneReuseBoundsGrowth) {
  // Delete-then-reinsert churn at a fixed live size must not grow the table
  // unboundedly (mirrors the Interner delete/reinsert regression): erased
  // slots become tombstones, inserts reuse them, and rehash reclaims them.
  FlatMap<uint32_t, uint32_t> M;
  for (uint32_t I = 0; I < 64; ++I)
    M.try_emplace(I, I);
  size_t CapAfterFill = M.capacity();
  for (uint32_t Round = 0; Round < 10000; ++Round) {
    M.erase(Round); // Oldest live key.
    M.try_emplace(Round + 64, Round);
    ASSERT_EQ(M.size(), 64u);
  }
  // Live size never exceeded 64+1; capacity must stay within one doubling
  // of the post-fill capacity, not track the total insert count.
  EXPECT_LE(M.capacity(), CapAfterFill * 2)
      << "tombstones leaked: capacity " << M.capacity() << " after churn";
}

TEST(FlatMap, DeleteThenReinsertEnumeration) {
  // Enumeration after delete + reinsert sees exactly the live entries.
  FlatMap<uint32_t, uint32_t> M;
  for (uint32_t I = 0; I < 32; ++I)
    M.try_emplace(I, I);
  for (uint32_t I = 0; I < 32; I += 2)
    M.erase(I);
  for (uint32_t I = 0; I < 32; I += 4)
    M.try_emplace(I, I + 1000); // Reinsert a subset through tombstones.
  std::set<uint32_t> Seen;
  for (const auto &E : M)
    Seen.insert(E.first);
  std::set<uint32_t> Want;
  for (uint32_t I = 0; I < 32; ++I)
    if (I % 2 == 1 || I % 4 == 0)
      Want.insert(I);
  EXPECT_EQ(Seen, Want);
  for (uint32_t I = 0; I < 32; I += 4)
    EXPECT_EQ(M.at(I), I + 1000) << "reinserted value lost";
}

TEST(FlatMap, RehashPreservesEntries) {
  FlatMap<uint64_t, uint64_t> M;
  std::mt19937_64 Rng(42);
  std::vector<uint64_t> Keys;
  for (int I = 0; I < 5000; ++I)
    Keys.push_back(Rng());
  for (uint64_t K : Keys)
    M[K] = ~K;
  EXPECT_EQ(M.size(), Keys.size());
  for (uint64_t K : Keys)
    EXPECT_EQ(M.at(K), ~K);
}

TEST(FlatMap, EraseByIteratorDuringScan) {
  FlatMap<uint32_t, uint32_t> M;
  for (uint32_t I = 0; I < 100; ++I)
    M.try_emplace(I, I);
  for (auto It = M.begin(); It != M.end();) {
    if (It->first % 3 == 0)
      It = M.erase(It);
    else
      ++It;
  }
  EXPECT_EQ(M.size(), 66u);
  for (uint32_t I = 0; I < 100; ++I)
    EXPECT_EQ(M.contains(I), I % 3 != 0);
}

TEST(FlatMap, InlineStorageTransition) {
  // An InlineCap map serves small sizes from in-object storage and must
  // stay correct across the spill to the heap.
  FlatMap<uint32_t, uint32_t, FlatHash<uint32_t>, 8> M;
  for (uint32_t I = 0; I < 6; ++I)
    M.try_emplace(I, I * 2);
  EXPECT_EQ(M.capacity(), 8u); // Still inline.
  for (uint32_t I = 6; I < 64; ++I)
    M.try_emplace(I, I * 2);
  EXPECT_GT(M.capacity(), 8u); // Spilled.
  for (uint32_t I = 0; I < 64; ++I)
    EXPECT_EQ(M.at(I), I * 2);

  // Copy and move of both inline and spilled maps.
  FlatMap<uint32_t, uint32_t, FlatHash<uint32_t>, 8> Small;
  Small.try_emplace(1, 10);
  auto SmallCopy = Small;
  EXPECT_EQ(SmallCopy.at(1), 10u);
  auto BigCopy = M;
  EXPECT_EQ(BigCopy.size(), 64u);
  auto BigMoved = std::move(BigCopy);
  EXPECT_EQ(BigMoved.at(63), 126u);
  Small = BigMoved; // Inline -> heap assignment.
  EXPECT_EQ(Small.size(), 64u);
}

TEST(FlatMap, ClearKeepsCapacity) {
  FlatMap<uint32_t, uint32_t> M;
  for (uint32_t I = 0; I < 100; ++I)
    M.try_emplace(I, I);
  size_t Cap = M.capacity();
  M.clear();
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.capacity(), Cap);
  M.try_emplace(7, 7);
  EXPECT_EQ(M.size(), 1u);
}

TEST(FlatSet, Basics) {
  FlatSet<uint32_t> S;
  EXPECT_TRUE(S.insert(3));
  EXPECT_FALSE(S.insert(3));
  EXPECT_TRUE(S.insert(9));
  EXPECT_TRUE(S.contains(3));
  EXPECT_EQ(S.count(4), 0u);
  EXPECT_EQ(S.size(), 2u);
  std::set<uint32_t> Seen(S.begin(), S.end());
  EXPECT_EQ(Seen, (std::set<uint32_t>{3, 9}));
  EXPECT_EQ(S.erase(3), 1u);
  EXPECT_FALSE(S.contains(3));
}

//===----------------------------------------------------------------------===//
// Hash-distribution regressions
//===----------------------------------------------------------------------===//

namespace {

/// Max probe-cluster size when \p Hashes are masked into a table of
/// \p TableSize buckets (power of two). A weak hash (identity low bits,
/// multiplicative-only mixes) collapses realistic key patterns into few
/// buckets, turning O(1) probes into O(n) scans.
template <typename KeyRange, typename HashFn>
size_t maxBucketLoad(const KeyRange &Keys, HashFn H, size_t TableSize) {
  std::vector<uint32_t> Load(TableSize, 0);
  size_t Max = 0;
  for (const auto &K : Keys) {
    uint32_t &L = Load[static_cast<size_t>(H(K)) & (TableSize - 1)];
    Max = std::max<size_t>(Max, ++L);
  }
  return Max;
}

} // namespace

TEST(FlatMapHash, FactKeyDistribution) {
  // The realistic hot pattern: sequential NodeIDs, few contexts, one hot
  // FactKind. Under the identity std::hash<uint64_t> (libstdc++) the old
  // packed-word scheme clustered these; splitmix64 must spread them.
  std::vector<FactKey> Keys;
  for (uint32_t Node = 0; Node < 2048; ++Node)
    for (uint32_t Ctx = 0; Ctx < 2; ++Ctx)
      Keys.push_back(FactKey{Node, Ctx, FactKind::Expression, 0});
  // 4096 keys into 4096 buckets: a uniform hash gives small clusters (the
  // expected max load of 4096 balls in 4096 bins is ~8); identity-like
  // hashing of the packed word gives clusters in the hundreds.
  EXPECT_LE(maxBucketLoad(Keys, FactKeyHash{}, 4096), 16u);
  // And the low bits alone must already distinguish Kind/Index-only
  // differences (a pure "A * prime" mix pushed them to the high bits).
  std::vector<FactKey> KindKeys;
  for (int K = 0; K < 8; ++K)
    for (uint16_t I = 0; I < 32; ++I)
      KindKeys.push_back(FactKey{7, 1, static_cast<FactKind>(K), I});
  EXPECT_LE(maxBucketLoad(KindKeys, FactKeyHash{}, 256), 8u);
}

TEST(FlatMapHash, SequentialIntsAndAtoms) {
  std::vector<uint32_t> Ids(4096);
  for (uint32_t I = 0; I < 4096; ++I)
    Ids[I] = I;
  EXPECT_LE(maxBucketLoad(Ids, FlatHash<uint32_t>{}, 4096), 16u);
  std::vector<StringId> Atoms;
  for (uint32_t I = 1; I <= 4096; ++I)
    Atoms.push_back(StringId(I));
  EXPECT_LE(maxBucketLoad(Atoms, FlatHash<StringId>{}, 4096), 16u);
}

//===----------------------------------------------------------------------===//
// FactDB determinism: dump() independent of container iteration order
//===----------------------------------------------------------------------===//

TEST(FactDB, DumpIndependentOfInsertionOrder) {
  // The flat table's iteration order depends on hashing and insertion
  // history; everything fingerprint-visible must not. Insert the same fact
  // set in two adversarial orders (one with extra churn to shift slots) and
  // require byte-identical dumps and counts.
  std::vector<std::pair<FactKey, FactValue>> Facts;
  for (uint32_t Node = 1; Node <= 200; ++Node) {
    FactValue V;
    V.K = FactValue::Number;
    V.Num = Node * 1.5;
    Facts.push_back({FactKey{Node, 0, FactKind::Condition, 0}, V});
    FactValue C;
    C.K = FactValue::Boolean;
    C.B = Node % 2;
    Facts.push_back({FactKey{Node, 0, FactKind::Callee, 0}, C});
  }

  FactDB Fwd;
  for (const auto &[K, V] : Facts)
    Fwd.record(K, V);

  FactDB Rev;
  // Churn first: insert then demote unrelated keys so the table's slot
  // layout (tombstones, capacity) diverges from Fwd's.
  for (uint32_t Node = 1000; Node < 1500; ++Node) {
    FactValue V;
    V.K = FactValue::Number;
    V.Num = 1;
    Rev.record(FactKey{Node, 0, FactKind::Assign, 0}, V);
  }
  for (auto It = Facts.rbegin(); It != Facts.rend(); ++It)
    Rev.record(It->first, It->second);

  // Merge-demote the churn keys to indeterminate in *both* so the live fact
  // sets agree (a second observation with a different value demotes).
  for (uint32_t Node = 1000; Node < 1500; ++Node) {
    FactValue V;
    V.K = FactValue::Number;
    V.Num = 1;
    Fwd.record(FactKey{Node, 0, FactKind::Assign, 0}, V);
  }

  ContextTable Ctx;
  EXPECT_EQ(Fwd.size(), Rev.size());
  EXPECT_EQ(Fwd.countDeterminate(), Rev.countDeterminate());
  EXPECT_EQ(Fwd.dump(Ctx), Rev.dump(Ctx));

  // And merge() over differently-ordered databases is order-insensitive.
  FactDB MergedA, MergedB;
  MergedA.merge(Fwd);
  MergedA.merge(Rev);
  MergedB.merge(Rev);
  MergedB.merge(Fwd);
  EXPECT_EQ(MergedA.dump(Ctx), MergedB.dump(Ctx));
}

//===----------------------------------------------------------------------===//
// NodeBitSet
//===----------------------------------------------------------------------===//

TEST(NodeBitSet, InsertContainsIterate) {
  NodeBitSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(5));
  EXPECT_FALSE(S.insert(5));
  EXPECT_TRUE(S.insert(64)); // Word boundary.
  EXPECT_TRUE(S.insert(63));
  EXPECT_TRUE(S.insert(1000));
  EXPECT_TRUE(S.contains(5));
  EXPECT_FALSE(S.contains(6));
  EXPECT_EQ(S.count(64), 1u);
  EXPECT_EQ(S.size(), 4u);
  // Iteration is ascending — the sorted order fingerprints rely on.
  EXPECT_EQ(S.toSortedVector(), (std::vector<uint32_t>{5, 63, 64, 1000}));
  std::vector<uint32_t> Iterated(S.begin(), S.end());
  EXPECT_EQ(Iterated, S.toSortedVector());
}

TEST(NodeBitSet, InsertAllAndEquality) {
  NodeBitSet A, B;
  for (uint32_t I : {1u, 70u, 200u})
    A.insert(I);
  for (uint32_t I : {70u, 300u})
    B.insert(I);
  A.insertAll(B);
  EXPECT_EQ(A.size(), 4u);
  EXPECT_EQ(A.toSortedVector(), (std::vector<uint32_t>{1, 70, 200, 300}));

  NodeBitSet C;
  for (uint32_t I : {1u, 70u, 200u, 300u})
    C.insert(I);
  EXPECT_EQ(A, C);
  C.insert(301);
  EXPECT_NE(A, C);
  // Trailing-zero words don't break equality.
  NodeBitSet D;
  D.insert(4000);
  NodeBitSet E;
  E.insert(4000);
  E.insert(1);
  EXPECT_NE(D, E);
}

//===----------------------------------------------------------------------===//
// ChunkedArena and SmallVec
//===----------------------------------------------------------------------===//

namespace {

struct Elem {
  int X = 0;
};

} // namespace

TEST(ChunkedArena, StableAddressesAcrossGrowth) {
  ChunkedArena<Elem> A;
  std::vector<Elem *> Ptrs;
  for (int I = 0; I < 500; ++I) {
    Elem &P = A.push();
    P.X = I;
    Ptrs.push_back(&P);
  }
  for (int I = 0; I < 500; ++I)
    EXPECT_EQ(Ptrs[I]->X, I) << "chunk moved under growth";
  EXPECT_EQ(&A[123], Ptrs[123]);
}

TEST(SmallVec, InlineAndSpill) {
  SmallVec<uint32_t, 4> V;
  EXPECT_TRUE(V.empty());
  for (uint32_t I = 0; I < 4; ++I)
    V.push_back(I);
  EXPECT_EQ(V.capacity(), 4u); // Inline.
  V.push_back(4);
  EXPECT_GT(V.capacity(), 4u); // Spilled, contents intact.
  for (uint32_t I = 0; I < 5; ++I)
    EXPECT_EQ(V[I], I);

  // Sorted-set maintenance ops used by MaybeAbsent/MaybePresent.
  auto It = std::lower_bound(V.begin(), V.end(), 3u);
  V.insert(It, 3u); // Duplicate insert by position.
  EXPECT_EQ(V.size(), 6u);
  V.erase(V.begin());
  EXPECT_EQ(V[0], 1u);

  // Vector interop (incremental-region deserializer).
  std::vector<uint32_t> Src{9, 8, 7};
  V = Src;
  EXPECT_EQ(V.size(), 3u);
  EXPECT_EQ(V[2], 7u);

  SmallVec<uint32_t, 4> W;
  W = V;
  EXPECT_EQ(W, V);
  W.push_back(1);
  EXPECT_NE(W, V);
  SmallVec<uint32_t, 4> M = std::move(W);
  EXPECT_EQ(M.size(), 4u);
}

TEST(SmallVec, JSObjectMaybeSetsStayInline) {
  // The JSObject members this type exists for: typical records carry a
  // handful of names, which must not touch the global allocator.
  JSObject O;
  EXPECT_TRUE(O.insertMaybeAbsent(StringId(5)));
  EXPECT_TRUE(O.insertMaybeAbsent(StringId(3)));
  EXPECT_FALSE(O.insertMaybeAbsent(StringId(5)));
  EXPECT_TRUE(O.isMaybeAbsent(StringId(3)));
  EXPECT_EQ(O.MaybeAbsent.size(), 2u);
  EXPECT_LE(O.MaybeAbsent.capacity(), 4u);
  O.eraseMaybeAbsent(StringId(3));
  EXPECT_FALSE(O.isMaybeAbsent(StringId(3)));
}
