#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "db/cluster.h"
#include "db/selector.h"
#include "db/storage.h"
#include "sim/event_loop.h"
#include "util/rng.h"

namespace e2e::db {
namespace {

TEST(StorageEngine, PutGetOverwrite) {
  StorageEngine store;
  store.Put(1, "a");
  store.Put(2, "b");
  store.Put(1, "a2");
  EXPECT_EQ(store.Get(1), "a2");
  EXPECT_EQ(store.Get(2), "b");
  EXPECT_EQ(store.Get(3), std::nullopt);
}

TEST(StorageEngine, DeleteCreatesTombstone) {
  StorageEngine store;
  store.Put(1, "a");
  store.Flush();
  store.Delete(1);
  EXPECT_EQ(store.Get(1), std::nullopt);
  // After flushing the tombstone, the key stays deleted across runs.
  store.Flush();
  EXPECT_EQ(store.Get(1), std::nullopt);
  // Compaction reclaims the tombstone.
  store.Compact();
  EXPECT_EQ(store.Get(1), std::nullopt);
  EXPECT_EQ(store.LiveKeyCount(), 0u);
}

TEST(StorageEngine, NewestVersionWinsAcrossRuns) {
  StorageEngine store;
  store.Put(7, "v1");
  store.Flush();
  store.Put(7, "v2");
  store.Flush();
  store.Put(7, "v3");  // Memtable is newest.
  EXPECT_EQ(store.Get(7), "v3");
  EXPECT_EQ(store.RunCount(), 2u);
}

TEST(StorageEngine, AutoFlushAtLimit) {
  StorageEngine store(/*memtable_limit=*/4, /*max_runs=*/100);
  for (Key k = 0; k < 10; ++k) store.Put(k, "x");
  EXPECT_GT(store.RunCount(), 0u);
  EXPECT_LT(store.MemtableSize(), 4u);
  for (Key k = 0; k < 10; ++k) EXPECT_EQ(store.Get(k), "x");
}

TEST(StorageEngine, AutoCompactionBoundsRuns) {
  StorageEngine store(/*memtable_limit=*/2, /*max_runs=*/3);
  for (Key k = 0; k < 40; ++k) store.Put(k, "x");
  EXPECT_LE(store.RunCount(), 3u);
  EXPECT_EQ(store.LiveKeyCount(), 40u);
}

TEST(StorageEngine, RangeQueryMergesSources) {
  StorageEngine store;
  store.Put(1, "m1");
  store.Put(3, "m3");
  store.Flush();
  store.Put(2, "m2");
  store.Put(3, "m3-new");  // Newer version in memtable.
  const RowSet rows = store.RangeQuery(1, 10);
  auto expect_original = [&rows] {
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].key, 1u);
    EXPECT_EQ(rows[0].value, "m1");
    EXPECT_EQ(rows[1].key, 2u);
    EXPECT_EQ(rows[1].value, "m2");
    EXPECT_EQ(rows[2].key, 3u);
    EXPECT_EQ(rows[2].value, "m3-new");
  };
  expect_original();
  // The result owns its bytes: overwriting, deleting, flushing and
  // compacting the engine's copies afterwards leaves it as it was read.
  store.Put(1, "overwritten");
  store.Put(2, std::string(64, 'x'));
  store.Delete(3);
  store.Flush();
  store.Put(4, "m4");
  store.Compact();
  expect_original();
  const RowSet after = store.RangeQuery(1, 10);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0].value, "overwritten");
  EXPECT_EQ(after[1].value, std::string(64, 'x'));
  EXPECT_EQ(after[2].key, 4u);
}

// True when two live reads of the same rows share their value bytes: only
// a pinned view of one run does, as each merged read owns its own block.
bool ReadsSharePinnedBytes(const StorageEngine& store, Key start,
                           std::size_t count) {
  const RowSet a = store.RangeQuery(start, count);
  const RowSet b = store.RangeQuery(start, count);
  return !a.empty() && a.front().value.data() == b.front().value.data();
}

TEST(StorageEngine, PinnedViewSharesTheRunAndOutlivesWrites) {
  StorageEngine store;
  for (Key k = 0; k < 10; ++k) store.Put(k, "v" + std::to_string(k));
  store.Flush();
  store.Compact();
  const RowSet first = store.RangeQuery(2, 5);
  const RowSet second = store.RangeQuery(2, 5);
  ASSERT_EQ(first.size(), 5u);
  ASSERT_EQ(second.size(), 5u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].key, second[i].key);
    EXPECT_EQ(first[i].value.data(), second[i].value.data());
  }
  auto expect_original = [&first] {
    ASSERT_EQ(first.size(), 5u);
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].key, 2u + i);
      EXPECT_EQ(first[i].value, "v" + std::to_string(2 + i));
    }
  };
  // The view pins the run it was read from: overwriting, deleting,
  // flushing and compacting the engine afterwards leaves it as it was read.
  store.Put(3, "overwritten");
  store.Delete(4);
  store.Flush();
  store.Put(5, std::string(64, 'x'));
  store.Compact();
  expect_original();
  const RowSet after = store.RangeQuery(2, 5);
  ASSERT_EQ(after.size(), 5u);
  EXPECT_EQ(after[0].value, "v2");
  EXPECT_EQ(after[1].value, "overwritten");
  EXPECT_EQ(after[2].key, 5u);
  EXPECT_EQ(after[2].value, std::string(64, 'x'));
  EXPECT_EQ(after[4].key, 7u);
}

TEST(RowSet, FrontAndBackOfAnEmptySetThrow) {
  StorageEngine store;
  store.Put(1, "a");
  store.Flush();
  store.Compact();
  for (const RowSet& rows :
       {RowSet{}, store.RangeQuery(0, 0), store.RangeQuery(2, 10)}) {
    ASSERT_TRUE(rows.empty());
    EXPECT_THROW(rows.front(), std::out_of_range);
    EXPECT_THROW(rows.back(), std::out_of_range);
  }
  const RowSet one = store.RangeQuery(0, 10);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front().value, "a");
  EXPECT_EQ(one.back().value, "a");
}

TEST(StorageEngine, RangeQuerySkipsTombstones) {
  StorageEngine store;
  for (Key k = 0; k < 10; ++k) store.Put(k, "v");
  store.Flush();
  store.Delete(4);
  store.Delete(5);
  const auto rows = store.RangeQuery(2, 5);
  ASSERT_EQ(rows.size(), 5u);
  // 4 and 5 are skipped but the query still returns 5 live rows (2,3,6,7,8).
  EXPECT_EQ(rows[0].key, 2u);
  EXPECT_EQ(rows[2].key, 6u);
  EXPECT_EQ(rows[4].key, 8u);
}

TEST(StorageEngine, RangeQueryRespectsStartAndCount) {
  StorageEngine store;
  for (Key k = 0; k < 100; ++k) store.Put(k, "v");
  const auto rows = store.RangeQuery(40, 10);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front().key, 40u);
  EXPECT_EQ(rows.back().key, 49u);
  EXPECT_TRUE(store.RangeQuery(200, 5).empty());
  EXPECT_TRUE(store.RangeQuery(0, 0).empty());
  // A count past everything the engine holds returns what is there.
  const auto rest = store.RangeQuery(40, SIZE_MAX);
  ASSERT_EQ(rest.size(), 60u);
  EXPECT_EQ(rest.front().key, 40u);
  EXPECT_EQ(rest.back().key, 99u);
  EXPECT_EQ(rest.back().value, "v");
}

TEST(StorageEngine, CompactionPreservesData) {
  StorageEngine store(/*memtable_limit=*/8, /*max_runs=*/100);
  Rng rng(3);
  std::map<Key, std::string> reference;
  int deletes = 0;
  for (int i = 0; i < 500; ++i) {
    const Key k = static_cast<Key>(rng.UniformInt(0, 99));
    if (rng.Bernoulli(0.2)) {
      store.Delete(k);
      reference.erase(k);
      ++deletes;
    } else {
      const std::string v = "v" + std::to_string(i);
      store.Put(k, v);
      reference[k] = v;
    }
  }
  // Differential check of the k-way merge: every range read must return
  // exactly the reference map's slice, while versions and tombstones are
  // spread over many runs and the memtable, and again after compaction.
  ASSERT_GT(store.RunCount(), 1u);
  ASSERT_GT(store.MemtableSize(), 0u);
  ASSERT_GT(deletes, 0);
  std::vector<std::pair<Key, std::size_t>> queries = {
      {0, 0}, {17, 1}, {90, 50}, {0, SIZE_MAX}, {55, SIZE_MAX},
      {100, 5}, {250, SIZE_MAX}, {106, 10}};
  for (int i = 0; i < 24; ++i) {
    queries.emplace_back(static_cast<Key>(rng.UniformInt(0, 110)),
                         static_cast<std::size_t>(rng.UniformInt(0, 40)));
  }
  auto expect_reference_slices = [&] {
    for (const auto& [start, count] : queries) {
      SCOPED_TRACE("RangeQuery(" + std::to_string(start) + ", " +
                   std::to_string(count) + ")");
      const RowSet rows = store.RangeQuery(start, count);
      std::size_t i = 0;
      for (auto it = reference.lower_bound(start);
           it != reference.end() && i < count; ++it, ++i) {
        ASSERT_LT(i, rows.size());
        EXPECT_EQ(rows[i].key, it->first);
        EXPECT_EQ(rows[i].value, it->second);
      }
      EXPECT_EQ(rows.size(), i);
    }
  };
  expect_reference_slices();
  EXPECT_FALSE(ReadsSharePinnedBytes(store, 0, SIZE_MAX));
  store.Compact();
  EXPECT_EQ(store.RunCount(), 1u);
  EXPECT_EQ(store.MemtableSize(), 0u);
  EXPECT_EQ(store.LiveKeyCount(), reference.size());
  for (const auto& [k, v] : reference) EXPECT_EQ(store.Get(k), v);
  // One compacted run: every read pins it.
  expect_reference_slices();
  EXPECT_TRUE(ReadsSharePinnedBytes(store, 0, SIZE_MAX));
  EXPECT_TRUE(ReadsSharePinnedBytes(store, 90, 50));

  // Each shape below leaves a read the pinned view cannot serve: it merges
  // and still returns the reference's slice. A memtable key at or after
  // `start`:
  store.Put(105, "m105");
  reference[105] = "m105";
  EXPECT_FALSE(ReadsSharePinnedBytes(store, 100, 5));
  EXPECT_FALSE(ReadsSharePinnedBytes(store, 0, SIZE_MAX));
  expect_reference_slices();
  // A second run overlapping the first (the memtable flushed):
  store.Flush();
  ASSERT_EQ(store.RunCount(), 2u);
  ASSERT_EQ(store.MemtableSize(), 0u);
  EXPECT_FALSE(ReadsSharePinnedBytes(store, 0, SIZE_MAX));
  EXPECT_TRUE(ReadsSharePinnedBytes(store, 100, 5));  // The new run alone.
  expect_reference_slices();
  // A flushed tombstone inside the range of the only run past key 105:
  store.Compact();
  store.Delete(110);
  store.Put(120, "m120");
  reference[120] = "m120";
  store.Flush();
  ASSERT_EQ(store.RunCount(), 2u);
  ASSERT_EQ(store.MemtableSize(), 0u);
  EXPECT_FALSE(ReadsSharePinnedBytes(store, 106, 10));
  expect_reference_slices();
}

TEST(LoadBalancedSelector, PicksLeastLoaded) {
  LoadBalancedSelector selector;
  ClusterView view{.loads = {5, 1, 3}, .recent_delay_ms = {}};
  EXPECT_EQ(selector.SelectReplica(DbRequest{}, view), 1);
}

TEST(LoadBalancedSelector, RotatesOnTies) {
  LoadBalancedSelector selector;
  ClusterView view{.loads = {0, 0, 0}, .recent_delay_ms = {}};
  std::set<int> picks;
  for (int i = 0; i < 3; ++i) {
    picks.insert(selector.SelectReplica(DbRequest{}, view));
  }
  EXPECT_EQ(picks.size(), 3u);  // All replicas used under equal load.
  EXPECT_THROW(selector.SelectReplica(DbRequest{}, ClusterView{}),
               std::invalid_argument);
}

TEST(TableSelector, RoutesByExternalDelayBucket) {
  TableSelector selector("t", Rng(1));
  selector.SetTable({{.lo = 0.0, .hi = 2000.0, .probabilities = {1, 0, 0}},
                     {.lo = 2000.0, .hi = 5800.0, .probabilities = {0, 1, 0}},
                     {.lo = 5800.0, .hi = 1e9, .probabilities = {0, 0, 1}}});
  ClusterView view{.loads = {0, 0, 0}, .recent_delay_ms = {}};
  DbRequest fast{.id = 1, .external_delay_ms = 500.0};
  DbRequest mid{.id = 2, .external_delay_ms = 3000.0};
  DbRequest slow{.id = 3, .external_delay_ms = 9000.0};
  EXPECT_EQ(selector.SelectReplica(fast, view), 0);
  EXPECT_EQ(selector.SelectReplica(mid, view), 1);
  EXPECT_EQ(selector.SelectReplica(slow, view), 2);
  // Out-of-range delays clamp to edge buckets.
  DbRequest tiny{.id = 4, .external_delay_ms = -5.0};
  EXPECT_EQ(selector.SelectReplica(tiny, view), 0);
}

TEST(TableSelector, FallsBackRoundRobinWithoutTable) {
  TableSelector selector("t", Rng(1));
  ClusterView view{.loads = {0, 0, 0}, .recent_delay_ms = {}};
  std::set<int> picks;
  for (int i = 0; i < 3; ++i) {
    picks.insert(selector.SelectReplica(DbRequest{}, view));
  }
  EXPECT_EQ(picks.size(), 3u);
  EXPECT_FALSE(selector.HasTable());
}

TEST(TableSelector, RejectsBadTables) {
  TableSelector selector("t", Rng(1));
  EXPECT_THROW(
      selector.SetTable({{.lo = 5.0, .hi = 9.0, .probabilities = {1.0}},
                         {.lo = 1.0, .hi = 5.0, .probabilities = {1.0}}}),
      std::invalid_argument);
  EXPECT_THROW(
      selector.SetTable({{.lo = 0.0, .hi = 1.0, .probabilities = {}}}),
      std::invalid_argument);
}

TEST(Cluster, ReplicasHoldFullCopies) {
  EventLoop loop;
  ClusterParams params;
  params.replica_groups = 3;
  Cluster cluster(loop, params, Rng(5));
  cluster.LoadDataset(500, 16);
  for (int r = 0; r < cluster.NumReplicas(); ++r) {
    EXPECT_EQ(cluster.replica(r).storage().LiveKeyCount(), 500u);
  }
}

TEST(Cluster, ReplicasShareTheLoadedRunAndWriteAlone) {
  EventLoop loop;
  ClusterParams params;
  params.replica_groups = 3;
  Cluster cluster(loop, params, Rng(5));
  cluster.LoadDataset(100, 16);
  // The dataset was loaded once: every replica's reads view the same run.
  const RowSet r0 = cluster.replica(0).storage().RangeQuery(10, 5);
  const RowSet r2 = cluster.replica(2).storage().RangeQuery(10, 5);
  ASSERT_EQ(r0.size(), 5u);
  ASSERT_EQ(r2.size(), 5u);
  EXPECT_EQ(r0.front().value.data(), r2.front().value.data());
  // A write to one replica stays there, through flush and compaction too.
  StorageEngine& written = cluster.replica(0).storage();
  written.Put(10, "replica-0 only");
  written.Delete(11);
  written.Put(500, "new key");
  for (int pass = 0; pass < 3; ++pass) {
    if (pass == 1) written.Flush();
    if (pass == 2) written.Compact();
    EXPECT_EQ(written.Get(10), "replica-0 only");
    EXPECT_EQ(written.Get(11), std::nullopt);
    EXPECT_EQ(written.Get(500), "new key");
    EXPECT_EQ(written.LiveKeyCount(), 100u);
    for (int r = 1; r < cluster.NumReplicas(); ++r) {
      const StorageEngine& other = cluster.replica(r).storage();
      EXPECT_EQ(other.Get(10), std::string(16, 'v')) << "replica " << r;
      EXPECT_EQ(other.Get(11), std::string(16, 'v')) << "replica " << r;
      EXPECT_EQ(other.Get(500), std::nullopt) << "replica " << r;
      EXPECT_EQ(other.LiveKeyCount(), 100u) << "replica " << r;
      EXPECT_EQ(other.MemtableSize(), 0u) << "replica " << r;
    }
  }
  // Reads taken before the writes still see the loaded rows.
  EXPECT_EQ(r0.front().key, 10u);
  EXPECT_EQ(r0.front().value, std::string(16, 'v'));
}

TEST(Cluster, LoadDatasetRequiresEmptyReplicas) {
  EventLoop loop;
  ClusterParams params;
  Cluster loaded(loop, params, Rng(5));
  loaded.LoadDataset(10, 4);
  EXPECT_THROW(loaded.LoadDataset(10, 4), std::logic_error);
  // One non-empty replica is enough to refuse, and the refusal loads
  // nothing anywhere.
  Cluster written(loop, params, Rng(5));
  written.replica(2).storage().Put(3, "x");
  EXPECT_THROW(written.LoadDataset(10, 4), std::logic_error);
  EXPECT_EQ(written.replica(0).storage().LiveKeyCount(), 0u);
  EXPECT_EQ(written.replica(2).storage().LiveKeyCount(), 1u);
}

TEST(Cluster, RangeReadReturnsRowsAndTiming) {
  EventLoop loop;
  ClusterParams params;
  Cluster cluster(loop, params, Rng(5));
  cluster.LoadDataset(1000, 8);
  bool done = false;
  loop.Schedule(0.0, [&] {
    cluster.RangeRead(100, 50, 1, [&](ReadResult result) {
      done = true;
      // The rows arrive intact after moving through the read's callback.
      ASSERT_EQ(result.rows.size(), 50u);
      EXPECT_EQ(result.rows.front().key, 100u);
      EXPECT_EQ(result.rows.back().key, 149u);
      for (std::size_t i = 0; i < result.rows.size(); ++i) {
        EXPECT_EQ(result.rows[i].key, 100u + i);
        EXPECT_EQ(result.rows[i].value, std::string(8, 'v'));
      }
      EXPECT_EQ(result.replica, 1);
      EXPECT_GT(result.timing.finish_ms, result.timing.start_ms);
    });
  });
  loop.Run();
  EXPECT_TRUE(done);
  EXPECT_THROW(cluster.RangeRead(0, 1, 9, [](ReadResult) {}),
               std::out_of_range);
}

TEST(Cluster, ViewReflectsOutstandingLoad) {
  EventLoop loop;
  ClusterParams params;
  params.concurrency_per_replica = 1;
  Cluster cluster(loop, params, Rng(5));
  cluster.LoadDataset(100, 8);
  loop.Schedule(0.0, [&] {
    for (int i = 0; i < 4; ++i) {
      cluster.RangeRead(0, 10, 0, [](ReadResult) {});
    }
    const ClusterView view = cluster.View();
    EXPECT_EQ(view.loads[0], 4);
    EXPECT_EQ(view.loads[1], 0);
  });
  loop.Run();
  EXPECT_EQ(cluster.View().loads[0], 0);
}

TEST(ReadExecutor, UsesSelectorDecision) {
  EventLoop loop;
  ClusterParams params;
  Cluster cluster(loop, params, Rng(5));
  cluster.LoadDataset(100, 8);
  auto selector = std::make_shared<TableSelector>("t", Rng(2));
  selector->SetTable({{.lo = 0.0, .hi = 1e9, .probabilities = {0, 0, 1}}});
  ReadExecutor executor(cluster, selector);
  int observed_replica = -1;
  loop.Schedule(0.0, [&] {
    executor.ExecuteRangeRead(
        DbRequest{.id = 1, .external_delay_ms = 100.0},
        [&](ReadResult r) { observed_replica = r.replica; });
  });
  loop.Run();
  EXPECT_EQ(observed_replica, 2);
  EXPECT_THROW(ReadExecutor(cluster, nullptr), std::invalid_argument);
  EXPECT_THROW(executor.SetSelector(nullptr), std::invalid_argument);
}

TEST(Cluster, UnevenLoadYieldsUnevenDelays) {
  // The E2E mechanism relies on this: a lightly loaded replica answers
  // faster than a heavily loaded one.
  EventLoop loop;
  ClusterParams params;
  params.concurrency_per_replica = 2;
  Cluster cluster(loop, params, Rng(5));
  cluster.LoadDataset(200, 8);
  Rng arrivals(9);
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += arrivals.ExponentialMean(12.0);
    loop.Schedule(t, [&cluster, i] {
      // 5/6 of traffic to replica 0, 1/6 to replica 2.
      const int replica = (i % 6 == 0) ? 2 : 0;
      cluster.RangeRead(0, 10, replica, [](ReadResult) {});
    });
  }
  loop.Run();
  const auto& busy = cluster.replica(0).server().total_delay_stats();
  const auto& idle = cluster.replica(2).server().total_delay_stats();
  EXPECT_GT(busy.mean(), idle.mean() * 1.5);
}


TEST(Cluster, PointReadSeesLoadedData) {
  EventLoop loop;
  ClusterParams params;
  Cluster cluster(loop, params, Rng(5));
  cluster.LoadDataset(100, 8);
  std::optional<std::string> seen;
  loop.Schedule(0.0, [&] {
    cluster.Read(42, 2, [&](PointReadResult r) {
      seen = r.value;
      EXPECT_EQ(r.replica, 2);
    });
  });
  loop.Run();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->size(), 8u);
  EXPECT_THROW(cluster.Read(0, 9, [](PointReadResult) {}), std::out_of_range);
}

TEST(Cluster, QuorumWriteReplicatesEverywhere) {
  EventLoop loop;
  ClusterParams params;
  params.replica_groups = 3;
  Cluster cluster(loop, params, Rng(5));
  bool acked = false;
  loop.Schedule(0.0, [&] {
    cluster.Write(7, "value", /*quorum=*/2, [&](WriteResult result) {
      acked = true;
      EXPECT_EQ(result.acked_replicas, 2);
      EXPECT_GT(result.QuorumDelayMs(), 0.0);
    });
  });
  loop.Run();
  EXPECT_TRUE(acked);
  // After the loop drains, ALL replicas applied the write.
  for (int r = 0; r < cluster.NumReplicas(); ++r) {
    EXPECT_EQ(cluster.replica(r).storage().Get(7), "value") << "replica " << r;
  }
}

TEST(Cluster, QuorumAckPrecedesFullReplication) {
  EventLoop loop;
  ClusterParams params;
  params.replica_groups = 3;
  params.jitter_sigma = 0.6;  // Spread the per-replica apply times.
  Cluster cluster(loop, params, Rng(5));
  double quorum1_ms = 0.0;
  double quorum3_ms = 0.0;
  loop.Schedule(0.0, [&] {
    cluster.Write(1, "a", 1, [&](WriteResult r) { quorum1_ms = r.quorum_ms; });
    cluster.Write(2, "b", 3, [&](WriteResult r) { quorum3_ms = r.quorum_ms; });
  });
  loop.Run();
  EXPECT_GT(quorum1_ms, 0.0);
  EXPECT_GT(quorum3_ms, 0.0);
  EXPECT_LE(quorum1_ms, quorum3_ms);
}

TEST(Cluster, ReplicatedDeleteRemovesEverywhere) {
  EventLoop loop;
  ClusterParams params;
  Cluster cluster(loop, params, Rng(5));
  cluster.LoadDataset(10, 4);
  loop.Schedule(0.0, [&] {
    cluster.Delete(3, cluster.NumReplicas(), [](WriteResult) {});
  });
  loop.Run();
  for (int r = 0; r < cluster.NumReplicas(); ++r) {
    EXPECT_EQ(cluster.replica(r).storage().Get(3), std::nullopt);
  }
}

TEST(Cluster, WriteValidation) {
  EventLoop loop;
  ClusterParams params;
  Cluster cluster(loop, params, Rng(5));
  EXPECT_THROW(cluster.Write(1, "v", 0, [](WriteResult) {}),
               std::invalid_argument);
  EXPECT_THROW(cluster.Write(1, "v", 4, [](WriteResult) {}),
               std::invalid_argument);
  EXPECT_THROW(cluster.Write(1, "v", 1, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace e2e::db
