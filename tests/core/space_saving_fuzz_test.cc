// Differential fuzz of the Stream-Summary SpaceSaving (space_saving.h)
// against (a) golden digests produced by the original seed implementation
// (std::unordered_map counters + std::map<count, vector<Key>> buckets) at
// commit d1a9574, and (b) the retained reference implementation
// (space_saving_reference.h), across scripted streams that interleave
// weighted observes, evictions, Decay and Clear.
//
// The digests fold in size, total and the full sorted entry set after every
// single operation, so any divergence in a count, an error bound, or an
// eviction victim fails the test — this is what "sampling decisions stay
// byte-identical to seed" means mechanically.
//
// Split (see stream_golden_util.h): decay-free streams are pinned to the
// true seed binary's digests; streams with Decay are differentially checked
// against SpaceSavingReference, whose post-Decay bucket order is
// canonicalized (the seed's was an unordered_map iteration-order artifact).

#include "tests/core/stream_golden_util.h"

#include <gtest/gtest.h>

#include "oracles/space_saving_reference.h"
#include "src/core/space_saving.h"

namespace actop {
namespace {

// Generated from the seed implementation: SpaceSavingStreamDigest(seed, false)
// for seeds 1..100.
constexpr uint64_t kSeedStreamGoldens[100] = {
    0x77171e276c0aa666ULL, 0xbcf5f9c3cef20313ULL, 0x3f2485f9c5d62470ULL, 0x992fab4033598510ULL,
    0x78c860907128e31cULL, 0x2b9b0d69b58d7a5aULL, 0x70f4ec57672f0ae0ULL, 0xdb3397c422163bb6ULL,
    0x11fa9a461cf9061eULL, 0xc6e492bf717dcea8ULL, 0xfac1f99869d96809ULL, 0xd7c23a79a89971baULL,
    0x4dceddab40870f3eULL, 0xea89002d7e9f9ab9ULL, 0xf4325133992db27fULL, 0x70bab9815b493052ULL,
    0x48705c07e71f9201ULL, 0xdd70cb9c76dc3ec9ULL, 0x5ac7efa9d8045f45ULL, 0x112d564997c0baa7ULL,
    0x7dfd4a4beba20af6ULL, 0x04f2ed03c0625651ULL, 0xdefd16d1fd559ac0ULL, 0x22b48c4fdedcdf19ULL,
    0xe23af38beaab3792ULL, 0xed2e26d8af78dd68ULL, 0x810457dc3dfaa704ULL, 0xbc2e0f6b31d2c304ULL,
    0x4d2a99b62c91366cULL, 0x315fef38f5d0390fULL, 0x4c7636f03ecfd327ULL, 0xdcdc3c9dc7bdd52fULL,
    0x01b8b950d05029cbULL, 0x94ec6a8c181828ebULL, 0xc5e34c890db81957ULL, 0xf46521222dc68f07ULL,
    0xeaded9ecaeabc164ULL, 0x11a7067dfd09157dULL, 0xea3b7875dcc3996bULL, 0xd04a13aa6cca65a2ULL,
    0x100cd24fb54c90f8ULL, 0x124291ac7731e0e6ULL, 0x22fef16837c1c1edULL, 0x894380a9d162879fULL,
    0x54f2aa4faf2fb226ULL, 0xd9a3920b26cab5cdULL, 0xa320c08d2d12b37dULL, 0x32bec78d5e4b80e4ULL,
    0xdbe326973b7a00c8ULL, 0xc709e4ef53aea5e1ULL, 0x7e3321542fc6985dULL, 0x554664695a7d5630ULL,
    0x88526195c2edaa0eULL, 0x2e9ecdb0bbbb5a80ULL, 0x7677b702f8a22ffbULL, 0xe3f64d1a9c2cb732ULL,
    0x5c98b01f64a56d8cULL, 0x11c6c50b6481c3bcULL, 0x414dfc4866d54d44ULL, 0xb91d926503830033ULL,
    0xb65b66481d70a39fULL, 0x48ce89e59bd34fc1ULL, 0x827d2ae5ad7a6455ULL, 0xbfa87e48367b8cb7ULL,
    0xd1f782285e4a7688ULL, 0xddba98f7a2b50c33ULL, 0xbf8346468d6b0e0eULL, 0x1d6ea6022f323553ULL,
    0x0876d6b04dc95728ULL, 0x66f668ec01b52af4ULL, 0xd4bc52208609997bULL, 0x91a7fe9d89561488ULL,
    0xc1e3f42c2f6a52e7ULL, 0xf8fe05d1453d156fULL, 0xdc7359e97cdc61ffULL, 0x6a8e6c8dda77fc29ULL,
    0x5984dcc3ed78311aULL, 0x6efa089860b13242ULL, 0x287afb850192639bULL, 0x692a1443ef7c9099ULL,
    0xaac14bd52636b6fcULL, 0x38e548f154a4f0fcULL, 0xc3a5fa15741ef9c8ULL, 0x55e1f690a098abbdULL,
    0x9da2cc8db93d6ec6ULL, 0xfb8393eced05839bULL, 0xfedccb9c7cc58dfbULL, 0x9322d2922800fe46ULL,
    0x5c0611337e81a7aaULL, 0xdc1fa1ca8ebdfdbdULL, 0x27180bc69c7b2409ULL, 0x057f6e216169ef80ULL,
    0x2a1343b302fe7cc9ULL, 0x1e12317d70edc7a4ULL, 0xa5d093a5c1db66a3ULL, 0xe62a8bb5201d75ebULL,
    0x45dc76e54575cf30ULL, 0x2b893308532775ddULL, 0xc6dd7e7bfa1c2b00ULL, 0xf46456f4b3003c43ULL,
};

TEST(SpaceSavingFuzzTest, DecayFreeStreamsMatchSeedGoldens) {
  for (uint64_t seed = 1; seed <= 100; seed++) {
    EXPECT_EQ(SpaceSavingStreamDigest<SpaceSaving<uint64_t>>(seed, /*with_decay=*/false),
              kSeedStreamGoldens[seed - 1])
        << "seed " << seed;
  }
}

// The reference must also still match those goldens — it IS the seed code on
// decay-free streams, so a failure here means the reference drifted.
TEST(SpaceSavingFuzzTest, ReferenceMatchesSeedGoldens) {
  for (uint64_t seed = 1; seed <= 100; seed++) {
    EXPECT_EQ(SpaceSavingStreamDigest<SpaceSavingReference<uint64_t>>(seed, /*with_decay=*/false),
              kSeedStreamGoldens[seed - 1])
        << "seed " << seed;
  }
}

TEST(SpaceSavingFuzzTest, DecayInterleavingsMatchReference) {
  for (uint64_t seed = 1; seed <= 100; seed++) {
    EXPECT_EQ(SpaceSavingStreamDigest<SpaceSaving<uint64_t>>(seed, /*with_decay=*/true),
              SpaceSavingStreamDigest<SpaceSavingReference<uint64_t>>(seed, /*with_decay=*/true))
        << "seed " << seed;
  }
}

TEST(SpaceSavingFuzzTest, ZeroIncrementInterleavingsMatchReference) {
  for (uint64_t seed = 1; seed <= 100; seed++) {
    for (const bool with_decay : {false, true}) {
      EXPECT_EQ(SpaceSavingStreamDigest<SpaceSaving<uint64_t>>(seed, with_decay, /*with_zero=*/true),
                SpaceSavingStreamDigest<SpaceSavingReference<uint64_t>>(seed, with_decay,
                                                                        /*with_zero=*/true))
          << "seed " << seed << " decay " << with_decay;
    }
  }
}

TEST(SpaceSavingFuzzTest, ZeroIncrementKeepsEvictionOrder) {
  // A zero increment on a tracked key is a detach and re-attach at the same
  // count: the key moves to the tail of its own bucket (the seed's
  // swap-remove then push_back), so it is the next eviction victim.
  SpaceSaving<uint64_t> ss(3);
  SpaceSavingReference<uint64_t> ref(3);
  for (const uint64_t key : {1, 2, 3}) {
    ss.Observe(key);
    ref.Observe(key);
  }
  ss.Observe(1, 0);
  ref.Observe(1, 0);
  ss.Observe(4);
  ref.Observe(4);
  EXPECT_FALSE(ref.Contains(1));
  EXPECT_TRUE(ref.Contains(2));
  EXPECT_FALSE(ss.Contains(1));
  EXPECT_TRUE(ss.Contains(2));
  EXPECT_TRUE(ss.Contains(3));
  EXPECT_EQ(ss.EstimateCount(4), 2u);
}

TEST(SpaceSavingFuzzTest, SortedEntriesRanksCountDescThenKeyAsc) {
  SpaceSaving<uint64_t> ss(8);
  ss.Observe(5, 3);
  ss.Observe(9, 3);
  ss.Observe(2, 7);
  ss.Observe(1, 1);
  const auto sorted = ss.SortedEntries();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].key, 2u);
  EXPECT_EQ(sorted[1].key, 5u);  // count tie with 9 -> smaller key first
  EXPECT_EQ(sorted[2].key, 9u);
  EXPECT_EQ(sorted[3].key, 1u);
  for (size_t i = 1; i < sorted.size(); i++) {
    EXPECT_GE(sorted[i - 1].count, sorted[i].count);
  }
}

}  // namespace
}  // namespace actop
