// TopKHeap: property-checked against std::partial_sort over random inputs.

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.h"
#include "util/rng.h"

namespace mbi {
namespace {

TEST(TopKHeapTest, EmptyHeapReportsInfinity) {
  TopKHeap h(3);
  EXPECT_EQ(h.size(), 0u);
  EXPECT_FALSE(h.Full());
  EXPECT_EQ(h.WorstDistance(), std::numeric_limits<float>::infinity());
}

TEST(TopKHeapTest, FillsToKThenRejectsWorse) {
  TopKHeap h(2);
  EXPECT_TRUE(h.Push(5.0f, 1));
  EXPECT_TRUE(h.Push(3.0f, 2));
  EXPECT_TRUE(h.Full());
  EXPECT_FLOAT_EQ(h.WorstDistance(), 5.0f);
  EXPECT_FALSE(h.Push(6.0f, 3));   // worse than worst
  EXPECT_TRUE(h.Push(1.0f, 4));    // displaces 5.0
  EXPECT_FLOAT_EQ(h.WorstDistance(), 3.0f);
}

TEST(TopKHeapTest, EqualDistanceToWorstIsRejected) {
  TopKHeap h(1);
  EXPECT_TRUE(h.Push(2.0f, 1));
  EXPECT_FALSE(h.Push(2.0f, 2));
}

TEST(TopKHeapTest, TiedOffersKeepSmallestIdsInAnyOrder) {
  // Five offers tie at the k-th distance: the heap keeps the k smallest
  // (distance, id) pairs, so the order of the offers does not matter.
  const std::vector<Neighbor> offers = {
      {1.0f, 7}, {0.5f, 9}, {1.0f, 3}, {1.0f, 12}, {1.0f, 1}, {1.0f, 5}};
  const std::vector<Neighbor> reversed(offers.rbegin(), offers.rend());
  for (const std::vector<Neighbor>* order : {&offers, &reversed}) {
    TopKHeap h(3);
    for (const Neighbor& nb : *order) h.Push(nb.distance, nb.id);
    const SearchResult r = h.ExtractSorted();
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0], (Neighbor{0.5f, 9}));
    EXPECT_EQ(r[1], (Neighbor{1.0f, 1}));
    EXPECT_EQ(r[2], (Neighbor{1.0f, 3}));
  }
  // An offer tied with the k-th distance but a smaller id displaces it.
  TopKHeap h(1);
  EXPECT_TRUE(h.Push(2.0f, 5));
  EXPECT_TRUE(h.Push(2.0f, 4));
  EXPECT_EQ(h.contents().front().id, 4);
}

TEST(TopKHeapTest, ExtractSortedAscending) {
  TopKHeap h(4);
  h.Push(4.0f, 1);
  h.Push(1.0f, 2);
  h.Push(3.0f, 3);
  h.Push(2.0f, 4);
  SearchResult r = h.ExtractSorted();
  ASSERT_EQ(r.size(), 4u);
  for (size_t i = 1; i < r.size(); ++i) {
    EXPECT_LE(r[i - 1].distance, r[i].distance);
  }
  EXPECT_EQ(r[0].id, 2);
  EXPECT_EQ(r[3].id, 1);
}

TEST(TopKHeapTest, FewerThanKElements) {
  TopKHeap h(10);
  h.Push(1.0f, 1);
  h.Push(2.0f, 2);
  SearchResult r = h.ExtractSorted();
  EXPECT_EQ(r.size(), 2u);
}

struct TopKCase {
  size_t k;
  size_t n;
};

class TopKPropertyTest : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKPropertyTest, MatchesPartialSort) {
  const auto [k, n] = GetParam();
  Rng rng(k * 1000 + n);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Neighbor> input(n);
    for (size_t i = 0; i < n; ++i) {
      input[i] = {rng.NextFloat(), static_cast<VectorId>(i)};
    }

    TopKHeap h(k);
    for (const auto& nb : input) h.Push(nb.distance, nb.id);
    SearchResult got = h.ExtractSorted();

    std::vector<Neighbor> expected = input;
    std::partial_sort(expected.begin(),
                      expected.begin() + std::min(k, n), expected.end());
    expected.resize(std::min(k, n));

    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_FLOAT_EQ(got[i].distance, expected[i].distance)
          << "k=" << k << " n=" << n << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TopKPropertyTest,
    ::testing::Values(TopKCase{1, 1}, TopKCase{1, 100}, TopKCase{5, 4},
                      TopKCase{5, 5}, TopKCase{5, 6}, TopKCase{10, 1000},
                      TopKCase{100, 50}, TopKCase{128, 4096}));

TEST(NeighborTest, OrderingBreaksTiesById) {
  Neighbor a{1.0f, 5}, b{1.0f, 7};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  Neighbor c{0.5f, 9};
  EXPECT_TRUE(c < a);
}

}  // namespace
}  // namespace mbi
