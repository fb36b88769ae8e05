#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
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

// A table of keys [0, n), each holding `value`.
StorageEngine TableOf(std::size_t n, const std::string& value) {
  Rows rows;
  for (std::size_t k = 0; k < n; ++k) {
    rows.emplace_back(static_cast<Key>(k), value);
  }
  return StorageEngine(std::move(rows));
}

TEST(StorageEngine, RangeQueryRespectsStartAndCount) {
  const StorageEngine store = TableOf(100, "v");
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

TEST(StorageEngine, RangeQueryMatchesAReferenceMap) {
  // Random keys with gaps, each with its own value: every range read must
  // return exactly the reference map's slice.
  Rng rng(3);
  std::map<Key, std::string> reference;
  for (int i = 0; i < 60; ++i) {
    reference[static_cast<Key>(rng.UniformInt(0, 99))] =
        "v" + std::to_string(i);
  }
  const StorageEngine store(Rows(reference.begin(), reference.end()));
  std::vector<std::pair<Key, std::size_t>> queries = {
      {0, 0}, {17, 1}, {90, 50}, {0, SIZE_MAX}, {55, SIZE_MAX},
      {100, 5}, {250, SIZE_MAX}, {106, 10}};
  for (int i = 0; i < 24; ++i) {
    queries.emplace_back(static_cast<Key>(rng.UniformInt(0, 110)),
                         static_cast<std::size_t>(rng.UniformInt(0, 40)));
  }
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
}

TEST(StorageEngine, ReadsShareValueBytesAndOutliveTheEngine) {
  Rows rows;
  for (Key k = 0; k < 10; ++k) rows.emplace_back(k, "v" + std::to_string(k));
  std::optional<StorageEngine> store(std::in_place, std::move(rows));
  const RowSet first = store->RangeQuery(2, 5);
  ASSERT_EQ(first.size(), 5u);
  {
    const RowSet second = store->RangeQuery(2, 5);
    ASSERT_EQ(second.size(), 5u);
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].key, second[i].key);
      EXPECT_EQ(first[i].value.data(), second[i].value.data());
    }
  }
  // The set pins the rows it views: it reads the same once the engine and
  // every other read are gone.
  store.reset();
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].key, 2u + i);
    EXPECT_EQ(first[i].value, "v" + std::to_string(2 + i));
  }
}

TEST(StorageEngine, RejectsKeysThatDoNotAscendStrictly) {
  EXPECT_TRUE(StorageEngine().empty());
  EXPECT_EQ(StorageEngine(Rows{{7, "a"}}).RangeQuery(0, SIZE_MAX).size(), 1u);
  for (const Rows& rows : {Rows{{1, "a"}, {1, "b"}},
                           Rows{{1, "a"}, {3, "b"}, {2, "c"}}}) {
    try {
      (void)StorageEngine(rows);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("row " + std::to_string(rows.size() - 1)),
                std::string::npos)
          << what;
    }
  }
}

TEST(RowSet, FrontAndBackOfAnEmptySetThrow) {
  const StorageEngine store(Rows{{1, "a"}});
  for (const RowSet& rows :
       {RowSet{}, store.RangeQuery(0, 0), store.RangeQuery(2, 10),
        StorageEngine().RangeQuery(0, 10)}) {
    ASSERT_TRUE(rows.empty());
    EXPECT_THROW(rows.front(), std::out_of_range);
    EXPECT_THROW(rows.back(), std::out_of_range);
  }
  const RowSet one = store.RangeQuery(0, 10);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front().value, "a");
  EXPECT_EQ(one.back().value, "a");
}

TEST(LoadBalancedSelector, PicksLeastLoaded) {
  LoadBalancedSelector selector;
  ClusterView view{.loads = {5, 1, 3}};
  EXPECT_EQ(selector.SelectReplica(DbRequest{}, view), 1);
}

TEST(LoadBalancedSelector, RotatesOnTies) {
  LoadBalancedSelector selector;
  ClusterView view{.loads = {0, 0, 0}};
  std::set<int> picks;
  for (int i = 0; i < 3; ++i) {
    picks.insert(selector.SelectReplica(DbRequest{}, view));
  }
  EXPECT_EQ(picks.size(), 3u);  // All replicas used under equal load.
  EXPECT_THROW(selector.SelectReplica(DbRequest{}, ClusterView{}),
               std::invalid_argument);
}

TEST(TableSelector, RoutesByExternalDelayBucket) {
  TableSelector selector("t", Rng(1), 0.0);
  selector.SetTable({.rows = {{.lo = 0.0, .hi = 2000.0, .decision = 0},
                              {.lo = 2000.0, .hi = 5800.0, .decision = 1},
                              {.lo = 5800.0, .hi = 1e9, .decision = 2}},
                     .load_fractions = std::vector<double>(3)});
  ClusterView view{.loads = {0, 0, 0}};
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
  TableSelector selector("t", Rng(1), 0.0);
  ClusterView view{.loads = {0, 0, 0}};
  std::set<int> picks;
  for (int i = 0; i < 3; ++i) {
    picks.insert(selector.SelectReplica(DbRequest{}, view));
  }
  EXPECT_EQ(picks.size(), 3u);
  EXPECT_FALSE(selector.HasTable());
}

TEST(TableSelector, RejectsBadTables) {
  TableSelector selector("t", Rng(1), 0.0);
  EXPECT_THROW(
      selector.SetTable({.rows = {{.lo = 5.0, .hi = 9.0, .decision = 0},
                                  {.lo = 1.0, .hi = 5.0, .decision = 0}},
                         .load_fractions = std::vector<double>(1)}),
      std::invalid_argument);
  // A row whose decision names no replica.
  EXPECT_THROW(
      selector.SetTable({.rows = {{.lo = 0.0, .hi = 1.0, .decision = 0}},
                         .load_fractions = {}}),
      std::invalid_argument);
}

TEST(Cluster, ReplicasHoldFullCopies) {
  EventLoop loop;
  ClusterParams params;
  params.replica_groups = 3;
  Cluster cluster(loop, params, Rng(5));
  cluster.LoadDataset(500, 16);
  for (int r = 0; r < cluster.NumReplicas(); ++r) {
    const RowSet all = cluster.replica(r).storage().RangeQuery(0, SIZE_MAX);
    ASSERT_EQ(all.size(), 500u) << "replica " << r;
    EXPECT_EQ(all.front().key, 0u);
    EXPECT_EQ(all.back().key, 499u);
    EXPECT_EQ(all.back().value, std::string(16, 'v'));
  }
}

TEST(Cluster, ReplicasShareTheLoadedTable) {
  EventLoop loop;
  ClusterParams params;
  params.replica_groups = 3;
  Cluster cluster(loop, params, Rng(5));
  cluster.LoadDataset(100, 16);
  // The table was built once: every replica's reads view the same bytes.
  const RowSet r0 = cluster.replica(0).storage().RangeQuery(10, 5);
  for (int r = 1; r < cluster.NumReplicas(); ++r) {
    const RowSet other = cluster.replica(r).storage().RangeQuery(10, 5);
    ASSERT_EQ(other.size(), r0.size()) << "replica " << r;
    for (std::size_t i = 0; i < r0.size(); ++i) {
      EXPECT_EQ(other[i].key, r0[i].key);
      EXPECT_EQ(other[i].value.data(), r0[i].value.data());
    }
  }
  EXPECT_EQ(r0.front().key, 10u);
  EXPECT_EQ(r0.front().value, std::string(16, 'v'));
}

TEST(Cluster, LoadDatasetRequiresEmptyReplicas) {
  EventLoop loop;
  ClusterParams params;
  Cluster loaded(loop, params, Rng(5));
  loaded.LoadDataset(10, 4);
  EXPECT_THROW(loaded.LoadDataset(10, 4), std::logic_error);
  // One non-empty replica is enough to refuse, the refusal names it, and it
  // loads nothing anywhere.
  Cluster written(loop, params, Rng(5));
  written.replica(2).storage() = StorageEngine(Rows{{3, "x"}});
  try {
    written.LoadDataset(10, 4);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("replica 2"), std::string::npos) << what;
  }
  EXPECT_TRUE(written.replica(0).storage().empty());
  EXPECT_EQ(written.replica(2).storage().RangeQuery(0, SIZE_MAX).size(), 1u);
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
  auto selector = std::make_shared<TableSelector>("t", Rng(2), 0.0);
  selector->SetTable({.rows = {{.lo = 0.0, .hi = 1e9, .decision = 2}},
                      .load_fractions = std::vector<double>(3)});
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

}  // namespace
}  // namespace e2e::db
