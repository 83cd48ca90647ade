// The serialized-response cache behind DesignService::submit_encoded: a
// repeat of an identical query whose evaluator scope held still is
// answered as cached pre-encoded bytes (zero re-search), and any
// generation movement — store append, compaction, layout migration, or
// archive growth — invalidates the entry so a cached answer is always
// byte-identical to what a fresh submit() would produce right now.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "serve/service.hpp"
#include "serve/store.hpp"

namespace metacore::serve {
namespace {

std::string temp_store_path(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::error_code ec;
  std::filesystem::remove_all(path + ".d", ec);
  return path;
}

/// Cheap Viterbi query (loose BER target, tiny budget).
DesignQuery tiny_query(double mbps = 1.0) {
  DesignQuery query;
  query.kind = QueryKind::Viterbi;
  query.target_ber = 1e-2;
  query.esn0_db = 1.0;
  query.throughput_mbps = mbps;
  query.ber_shards = 2;
  query.budget.initial_points_per_dim = 2;
  query.budget.max_resolution = 0;
  query.budget.regions_per_level = 1;
  query.budget.max_evaluations = 16;
  return query;
}

/// Submits twice so the entry is cached: the cold run moves its own scope
/// (store appends, archive growth) so by design the *repeat* is the run
/// that becomes cacheable. Returns the warm bytes.
std::shared_ptr<const std::string> warm_cache(DesignService& service,
                                              const DesignQuery& query) {
  service.submit_encoded(query);
  return service.submit_encoded(query);
}

TEST(ResponseCache, WarmRepeatHitsWithBytesIdenticalToAFreshSubmit) {
  DesignService service;
  const DesignQuery query = tiny_query();

  // Cold run: a miss that moves the archive, so it is not yet cached.
  const auto first = service.submit_encoded(query);
  EXPECT_EQ(service.stats().response_cache_misses, 1u);
  EXPECT_EQ(service.response_cache_size(), 0u);

  // The repeat re-runs with the scope now stable — cached from here on.
  const auto second = service.submit_encoded(query);
  EXPECT_EQ(service.stats().response_cache_misses, 2u);
  EXPECT_EQ(service.response_cache_size(), 1u);
  EXPECT_EQ(*second, *first);  // deterministic re-run, identical bytes

  const auto third = service.submit_encoded(query);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.response_cache_hits, 1u);
  EXPECT_EQ(stats.response_cache_misses, 2u);
  // A hit returns the cached buffer itself — no re-serialization.
  EXPECT_EQ(third.get(), second.get());
  // The cache contract: cached bytes == what a fresh submit produces now.
  EXPECT_EQ(*third, to_json(service.submit(query)));
}

TEST(ResponseCache, StoreAppendInvalidatesTheEntry) {
  ServiceConfig config;
  config.store_path = temp_store_path("cache_append.jsonl");
  DesignService service(config);
  const DesignQuery query = tiny_query();
  warm_cache(service, query);
  ASSERT_EQ(service.response_cache_size(), 1u);

  // A wider-budget query on the SAME evaluator scope (budget is not part
  // of the fingerprint) evaluates fresh points and appends them to the
  // same store shard — the generation moves under the cached entry.
  DesignQuery wider = query;
  wider.budget.initial_points_per_dim = 3;
  wider.budget.max_evaluations = 48;
  service.submit(wider);

  const auto after = service.submit_encoded(query);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.response_cache_invalidations, 1u);
  // The invalidated repeat still answers correctly — and byte-identically
  // to a fresh submit against the enlarged store.
  EXPECT_EQ(*after, to_json(service.submit(query)));
}

TEST(ResponseCache, CompactionInvalidatesTheEntry) {
  ServiceConfig config;
  config.store_path = temp_store_path("cache_compact.jsonl");
  DesignService service(config);
  const DesignQuery query = tiny_query();
  warm_cache(service, query);
  ASSERT_EQ(service.response_cache_size(), 1u);
  const ServiceStats before = service.stats();

  // Snapshot compaction rewrites the journal: same entries, new
  // generation — the cache must not assume the scope held still.
  service.store()->compact();
  const auto after = service.submit_encoded(query);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.response_cache_invalidations,
            before.response_cache_invalidations + 1);
  EXPECT_EQ(*after, to_json(service.submit(query)));
}

TEST(ResponseCache, LayoutMigrationBumpsTheStoreGeneration) {
  // The migration arm of the invalidation contract: reopening a store
  // into a different shard layout rewrites every shard, so a service
  // attached to the migrated store sees a fresh generation and can never
  // serve bytes stamped under the old layout.
  const std::string path = temp_store_path("cache_migrate.jsonl");
  const DesignQuery query = tiny_query();
  const std::string fingerprint = query_fingerprint(query);
  {
    StoreConfig store_config;
    store_config.shards = 1;
    DesignService service(
        {path, std::make_shared<EvaluationStore>(path, store_config)});
    service.submit(query);
  }
  StoreConfig resharded;
  resharded.shards = 4;
  EvaluationStore migrated(path, resharded);
  EXPECT_TRUE(migrated.stats().migrated_layout);
  EXPECT_GE(migrated.generation(fingerprint), 1u);
}

TEST(ResponseCache, CapacityZeroDisablesCaching) {
  ServiceConfig config;
  config.response_cache_capacity = 0;
  DesignService service(config);
  const DesignQuery query = tiny_query();
  for (int i = 0; i < 3; ++i) {
    service.submit_encoded(query);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.response_cache_hits, 0u);
  EXPECT_EQ(service.response_cache_size(), 0u);
}

TEST(ResponseCache, FifoEvictionHonorsTheCapacity) {
  ServiceConfig config;
  config.response_cache_capacity = 1;
  DesignService service(config);
  const DesignQuery a = tiny_query(1.0);
  const DesignQuery b = tiny_query(2.0);
  warm_cache(service, a);
  ASSERT_EQ(service.response_cache_size(), 1u);

  // Warming a second query evicts the first (FIFO) instead of growing.
  warm_cache(service, b);
  EXPECT_EQ(service.response_cache_size(), 1u);

  // `a` was evicted: its repeat is a miss again, not a hit.
  const std::size_t hits_before = service.stats().response_cache_hits;
  service.submit_encoded(a);
  EXPECT_EQ(service.stats().response_cache_hits, hits_before);
}

TEST(ResponseCache, BatchDeduplicatesIdenticalEncodedQueries) {
  DesignService service;
  const DesignQuery query = tiny_query();
  warm_cache(service, query);

  const std::vector<DesignQuery> queries(4, query);
  const auto out = service.submit_batch_encoded(queries);
  ASSERT_EQ(out.size(), 4u);
  // The identical queries share one buffer.
  EXPECT_EQ(out[0].get(), out[1].get());
  EXPECT_EQ(out[1].get(), out[2].get());
  EXPECT_EQ(out[2].get(), out[3].get());
}

TEST(ResponseCache, ExplicitJsonEncodingSharesTheDefaultEntry) {
  // Callers that still name the (only) encoding reach the same entry.
  DesignService service;
  const DesignQuery query = tiny_query();
  const auto warm = warm_cache(service, query);
  const std::size_t hits_before = service.stats().response_cache_hits;
  const auto named = service.submit_encoded(query, WireEncoding::Json);
  EXPECT_EQ(named.get(), warm.get());
  EXPECT_EQ(service.stats().response_cache_hits, hits_before + 1);
  EXPECT_EQ(service.response_cache_size(), 1u);
}

TEST(ResponseCache, BatchBytesMatchOneByOneSubmitsOnAFreshService) {
  const DesignQuery a = tiny_query(1.0);
  const DesignQuery b = tiny_query(2.0);
  DesignService batched;
  const auto out = batched.submit_batch_encoded({a, b, a});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].get(), out[2].get());

  DesignService sequential;
  EXPECT_EQ(*out[0], to_json(sequential.submit(a)));
  EXPECT_EQ(*out[1], to_json(sequential.submit(b)));
}

}  // namespace
}  // namespace metacore::serve
