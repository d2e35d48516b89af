// Photo-library timeline search — the paper's second motivating query:
// "Which 10 photos you took between January 2010 and May 2011 are most
// similar to the one you just took?" (Section 1).
//
// Photos are synthetic 64-d feature vectors (as if from an image encoder)
// with unix-seconds timestamps spread over 15 years, demonstrating MBI with
// real-time (non-uniform) timestamps rather than virtual ones.

#include <cinttypes>
#include <cstdio>
#include <ctime>

#include "mbi/mbi_index.h"
#include "util/rng.h"

namespace {

constexpr size_t kDim = 64;
constexpr int64_t kSecondsPerDay = 86400;

// Days since epoch for a (year, month, day) — crude but dependency-free.
int64_t UnixSeconds(int year, int month, int day) {
  std::tm tm = {};
  tm.tm_year = year - 1900;
  tm.tm_mon = month - 1;
  tm.tm_mday = day;
  return static_cast<int64_t>(timegm(&tm));
}

std::string FormatDate(int64_t unix_seconds) {
  std::time_t t = static_cast<std::time_t>(unix_seconds);
  std::tm* tm = gmtime(&t);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", tm);
  return buf;
}

}  // namespace

int main() {
  using namespace mbi;

  // Simulate a photo library: bursts of photos (trips, events) between
  // 2009 and 2024. Each burst has a visual theme.
  Rng rng(77);
  MbiParams params;
  params.leaf_size = 4000;
  params.tau = 0.5;
  params.build.degree = 24;
  params.num_threads = 4;
  MbiIndex index(kDim, Metric::kL2, params);

  std::vector<float> theme(kDim);
  std::vector<float> photo(kDim);
  int64_t t = UnixSeconds(2009, 1, 1);
  const int64_t t_end = UnixSeconds(2024, 1, 1);
  size_t total = 0;
  std::vector<float> query_photo;

  while (t < t_end) {
    // A new event: new visual theme, 20-120 photos over a few days.
    for (auto& x : theme) x = static_cast<float>(rng.NextGaussian());
    const size_t burst = 20 + rng.NextBounded(100);
    for (size_t i = 0; i < burst; ++i) {
      for (size_t d = 0; d < kDim; ++d) {
        photo[d] = theme[d] + 0.9f * static_cast<float>(rng.NextGaussian());
      }
      MBI_CHECK_OK(index.Add(photo.data(), t));
      t += 30 + static_cast<int64_t>(rng.NextBounded(7200));  // seconds apart
      ++total;
      // Remember one photo from spring 2010 as the "similar look" we will
      // search for later.
      if (query_photo.empty() && t > UnixSeconds(2010, 4, 1)) {
        query_photo = photo;
      }
    }
    // Gap until the next event: 3-30 days.
    t += (3 + static_cast<int64_t>(rng.NextBounded(28))) * kSecondsPerDay;
  }

  MbiStats stats = index.GetStats();
  std::printf("photo library: %zu photos, %s .. %s, %zu index blocks\n\n",
              total, FormatDate(index.store().FirstTimestamp()).c_str(),
              FormatDate(index.store().LastTimestamp()).c_str(),
              stats.num_blocks);

  SearchParams search;
  search.k = 10;
  search.max_candidates = 96;
  search.epsilon = 1.1f;
  search.num_entry_points = 4;
  QueryContext ctx;

  // The paper's query: photos between January 2010 and May 2011.
  TimeWindow window{UnixSeconds(2010, 1, 1), UnixSeconds(2011, 5, 1)};
  MbiQueryStats qstats;
  SearchResult result =
      index.Search(query_photo.data(), window, search, &ctx, &qstats);

  std::printf("10 photos between 2010-01-01 and 2011-05-01 most similar to "
              "the query photo\n(searched %zu of %zu blocks):\n",
              qstats.blocks_searched, stats.num_blocks);
  for (const Neighbor& nb : result) {
    std::printf("  photo #%-7" PRId64 "  taken %s  distance %.3f\n",
                nb.id, FormatDate(index.store().GetTimestamp(nb.id)).c_str(),
                nb.distance);
  }

  // Contrast: same query without a time restriction.
  SearchResult all =
      index.Search(query_photo.data(), TimeWindow::All(), search, &ctx);
  std::printf("\nwithout time restriction the best match is photo #%" PRId64
              " taken %s (distance %.3f)\n",
              all[0].id, FormatDate(index.store().GetTimestamp(all[0].id)).c_str(),
              all[0].distance);
  return 0;
}
