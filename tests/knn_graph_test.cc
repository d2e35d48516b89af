// KnnGraph container behavior and serialization.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/knn_graph.h"
#include "util/io.h"

namespace mbi {
namespace {

// The largest graph stored in 16 bits, and the smallest stored in 32.
constexpr size_t kNarrowNodes = KnnGraph::kMaxNarrowNodes;
constexpr size_t kWideNodes = KnnGraph::kMaxNarrowNodes + 1;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string SaveToBytes(const KnnGraph& g) {
  const std::string path = ::testing::TempDir() + "/knn_graph_save.bin";
  BinaryWriter w;
  EXPECT_TRUE(w.Open(path).ok());
  EXPECT_TRUE(g.Save(&w).ok());
  EXPECT_TRUE(w.Close().ok());
  std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  return bytes;
}

Status LoadFromFile(const std::string& path, KnnGraph* g) {
  BinaryReader r;
  MBI_RETURN_IF_ERROR(r.Open(path));
  return g->Load(&r);
}

// The file layout at every width: n, degree and the slot count as uint64,
// then each slot as a uint32, empty slots as kInvalidNode.
std::string Uint32Image(uint64_t n, uint64_t degree,
                        const std::vector<NodeId>& slots) {
  std::string out;
  auto put = [&out](const auto& value) {
    out.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(n);
  put(degree);
  put(static_cast<uint64_t>(slots.size()));
  for (const NodeId s : slots) put(s);
  return out;
}

TEST(KnnGraphTest, InitializedToInvalid) {
  KnnGraph g(4, 3);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.degree(), 3u);
  for (NodeId v = 0; v < 4; ++v) {
    for (NodeId nb : g.Neighbors(v)) EXPECT_EQ(nb, kInvalidNode);
    EXPECT_EQ(g.NeighborCount(v), 0u);
  }
}

TEST(KnnGraphTest, SetNeighborWritesThrough) {
  KnnGraph g(3, 2);
  g.SetNeighbor(1, 0, 2);
  EXPECT_EQ(g.Neighbors(1)[0], 2u);
  EXPECT_EQ(g.Neighbors(1)[1], kInvalidNode);
  EXPECT_EQ(g.NeighborCount(1), 1u);
  EXPECT_EQ(g.NeighborCount(0), 0u);
  g.SetNeighbor(1, 0, kInvalidNode);
  EXPECT_EQ(g.NeighborCount(1), 0u);
}

TEST(KnnGraphTest, AverageDegree) {
  KnnGraph g(2, 4);
  g.SetNeighbor(0, 0, 1);
  g.SetNeighbor(0, 1, 1);
  g.SetNeighbor(1, 0, 0);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.5);
}

TEST(KnnGraphTest, MemoryBytes) {
  KnnGraph g(10, 8);
  EXPECT_EQ(g.MemoryBytes(), 10 * 8 * sizeof(uint16_t));
}

// The node count alone picks the width: 2 bytes per slot up to 65,535
// nodes, 4 above.
TEST(KnnGraphTest, WidthFollowsNodeCount) {
  EXPECT_EQ(KnnGraph(kNarrowNodes, 3).MemoryBytes(), kNarrowNodes * 3 * 2);
  EXPECT_EQ(KnnGraph(kWideNodes, 3).MemoryBytes(), kWideNodes * 3 * 4);
}

// Each width reads an empty slot as kInvalidNode and stores every id up to
// its largest node, including 65,534 (narrow) and 65,535 (wide), the ids
// just below and at the 16-bit empty marker.
TEST(KnnGraphTest, SlotsReadAsNodeIdsAtBothWidths) {
  for (const size_t n : {kNarrowNodes, kWideNodes}) {
    KnnGraph g(n, 2);
    const NodeId last = static_cast<NodeId>(n - 1);
    EXPECT_EQ(g.Neighbors(last),
              (std::vector<NodeId>{kInvalidNode, kInvalidNode}));
    g.SetNeighbor(last, 0, last - 1);
    g.SetNeighbor(0, 0, last);
    g.SetNeighbor(0, 1, 1);
    EXPECT_EQ(g.Neighbors(last), (std::vector<NodeId>{last - 1, kInvalidNode}))
        << n;
    EXPECT_EQ(g.Neighbors(0), (std::vector<NodeId>{last, 1})) << n;
    EXPECT_EQ(g.NeighborCount(last), 1u);
    EXPECT_EQ(g.NeighborCount(1), 0u);
    EXPECT_DOUBLE_EQ(g.AverageDegree(), 3.0 / static_cast<double>(n));
  }
}

TEST(KnnGraphTest, EmptyGraph) {
  KnnGraph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.MemoryBytes(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
}

// Save writes uint32 slots whatever the width in memory, so checkpoints
// keep one layout, and Load narrows again: the round trip returns an equal
// graph holding the same bytes.
TEST(KnnGraphTest, SaveLoadRoundTrip) {
  for (const size_t n : {size_t{5}, kNarrowNodes, kWideNodes}) {
    KnnGraph g(n, 2);
    std::vector<NodeId> slots(n * 2, kInvalidNode);
    for (size_t v = 0; v < n; v += 3) {
      const NodeId to = static_cast<NodeId>((v * 7 + 1) % n);
      g.SetNeighbor(static_cast<NodeId>(v), 0, to);
      slots[v * 2] = to;
    }
    g.SetNeighbor(0, 1, static_cast<NodeId>(n - 1));
    slots[1] = static_cast<NodeId>(n - 1);

    const std::string bytes = SaveToBytes(g);
    EXPECT_TRUE(bytes == Uint32Image(n, 2, slots)) << n;

    const std::string path = ::testing::TempDir() + "/knn_graph_widths.bin";
    WriteFile(path, bytes);
    KnnGraph loaded;
    ASSERT_TRUE(LoadFromFile(path, &loaded).ok()) << n;
    EXPECT_TRUE(loaded == g) << n;
    EXPECT_EQ(loaded.MemoryBytes(), g.MemoryBytes()) << n;
    std::remove(path.c_str());
  }
}

// An id at or past the node count is corruption at both widths. In a
// 65,535-node graph that includes 65,535, the 16-bit empty marker.
TEST(KnnGraphTest, LoadRejectsOutOfRangeIdAtBothWidths) {
  const std::string path = ::testing::TempDir() + "/knn_graph_range.bin";
  for (const size_t n : {kNarrowNodes, kWideNodes}) {
    for (const NodeId bad : {static_cast<NodeId>(n), kInvalidNode - 1}) {
      std::vector<NodeId> slots(n, kInvalidNode);
      slots[n / 2] = bad;
      WriteFile(path, Uint32Image(n, 1, slots));
      KnnGraph g;
      EXPECT_FALSE(LoadFromFile(path, &g).ok()) << n << " " << bad;
      slots[n / 2] = static_cast<NodeId>(n - 1);
      WriteFile(path, Uint32Image(n, 1, slots));
      EXPECT_TRUE(LoadFromFile(path, &g).ok()) << n;
    }
  }
  std::remove(path.c_str());
}

TEST(KnnGraphTest, LoadDetectsCorruptSize) {
  std::string path = ::testing::TempDir() + "/knn_graph_corrupt.bin";
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.Write<uint64_t>(5).ok());  // n = 5
    ASSERT_TRUE(w.Write<uint64_t>(2).ok());  // degree = 2
    ASSERT_TRUE(w.WriteVector<NodeId>({1, 2, 3}).ok());  // wrong size
    ASSERT_TRUE(w.Close().ok());
  }
  KnnGraph g;
  EXPECT_FALSE(LoadFromFile(path, &g).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mbi
