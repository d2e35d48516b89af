// Fuzz harness for the untrusted-bytes parsers in the persistence layer:
// MbiIndex::Recover over a checkpoint directory and the CRC-framed tail-log
// reader (persist::ReadLogRecords) on its own.
//
// The seed state is a real checkpoint directory of a small deterministic
// index: 120 rows in leaves of 16, so seven leaf segments, eleven graph
// block segments on three levels and an 8-row committed tail in the log.
// Input format: byte 0 selects the target (mod 5); the remaining bytes
// either replace one file of that directory before Recover runs on it
// (0 the MANIFEST, 1 a vector segment, 2 a block segment, 3 the tail log),
// or, for 4, are handed to ReadLogRecords as an in-memory file. The file is
// restored after each input, so every input starts from the same directory.
// ReadFramedFile parses a payload before it checks the frame's CRC, so
// byte-flip mutants reach the manifest's coverage checks, the segment id
// and block-range checks and the block Load bodies. Both paths promise that
// arbitrary corruption yields a clean non-OK Status — never a crash,
// sanitizer fault, unbounded allocation or wrong-but-OK result — so the
// harness's only assertions are those invariants.
//
// Build modes:
//   * with Clang and -fsanitize=fuzzer (MBI_FUZZER_DRIVER defined), libFuzzer
//     provides main() and drives LLVMFuzzerTestOneInput;
//   * otherwise a standalone main() runs the deterministic smoke: it
//     builds the seed corpus from the real checkpoint files and LogWriter
//     output and replays each seed plus a few hundred single-byte/truncation
//     mutations derived from a fixed mbi::Rng stream. This is what CI's
//     fuzz_smoke ctest runs under MBI_SANITIZE, and it doubles as
//     `--make-corpus <dir>` for exporting seeds to a real fuzzing run.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "data/synthetic.h"
#include "mbi/mbi_index.h"
#include "persist/file.h"
#include "persist/log.h"
#include "util/check.h"
#include "util/rng.h"

namespace mbi {
namespace {

// Input byte 0 (mod kNumTargets) picks one of these.
enum Target : uint8_t {
  kManifest = 0,
  kVectorSegment = 1,
  kBlockSegment = 2,
  kTailLog = 3,
  kLogBuffer = 4,  // ReadLogRecords on an in-memory file
  kNumTargets = 5,
};
constexpr size_t kNumFileTargets = kLogBuffer;

// In-memory ReadableFile so log replay needs no filesystem round-trip.
class MemReadableFile : public persist::ReadableFile {
 public:
  MemReadableFile(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  Status Read(void* out, size_t size) override {
    if (size > size_ - pos_) {
      return Status::DataLoss("short read past end of buffer");
    }
    // mbi-lint: allow(unchecked-memcpy) — length bounds-checked just above
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return Status::Ok();
  }

  Status Skip(uint64_t count) override {
    if (count > size_ - pos_) {
      return Status::DataLoss("skip past end of buffer");
    }
    pos_ += static_cast<size_t>(count);
    return Status::Ok();
  }

  uint64_t Size() const override { return size_; }
  Status Close() override { return Status::Ok(); }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  MBI_CHECK(f != nullptr);
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const uint8_t* data, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  MBI_CHECK(f != nullptr);
  MBI_CHECK(std::fwrite(data, 1, size, f) == size);
  std::fclose(f);
}

// The seed checkpoint directory and the pristine bytes of each fuzzed file.
struct SeedDir {
  std::string dir;
  std::string files[kNumFileTargets];
  std::vector<uint8_t> pristine[kNumFileTargets];
};

// Built once per process under $TMPDIR (or /tmp), keyed by pid.
const SeedDir& Seed() {
  static const SeedDir* seed = [] {
    constexpr size_t kDim = 8, kRows = 120;
    constexpr int64_t kLeaf = 16;
    auto* s = new SeedDir;
    const char* tmp = ::getenv("TMPDIR");
    s->dir = std::string(tmp != nullptr ? tmp : "/tmp") +
             "/mbi_fuzz_checkpoint." + std::to_string(::getpid());
    std::filesystem::remove_all(s->dir);

    SyntheticParams gen;
    gen.dim = kDim;
    gen.seed = 13;
    SyntheticData data = GenerateSynthetic(gen, kRows);
    MbiParams p;
    p.leaf_size = kLeaf;
    p.tau = 0.4;
    p.build.degree = 8;
    MbiIndex index(kDim, Metric::kL2, p);
    MBI_CHECK_OK(
        index.AddBatch(data.vectors.data(), data.timestamps.data(), kRows));
    MBI_CHECK_OK(index.Checkpoint(s->dir));
    MBI_CHECK_OK(MbiIndex::Recover(s->dir).status());  // a valid seed state

    const int64_t covered = static_cast<int64_t>(kRows) / kLeaf * kLeaf;
    s->files[kManifest] = s->dir + "/MANIFEST";
    s->files[kVectorSegment] = s->dir + "/segments/vec-0.seg";
    // Postorder index 6 is the level-2 block over leaves 0-3.
    s->files[kBlockSegment] = s->dir + "/segments/blk-6.seg";
    s->files[kTailLog] = s->dir + "/wal-" + std::to_string(covered) + ".log";
    for (size_t i = 0; i < kNumFileTargets; ++i) {
      s->pristine[i] = ReadAll(s->files[i]);
    }
    return s;
  }();
  return *seed;
}

void FuzzRecover(size_t target, const uint8_t* data, size_t size) {
  const SeedDir& seed = Seed();
  WriteAll(seed.files[target], data, size);
  auto recovered = MbiIndex::Recover(seed.dir);
  WriteAll(seed.files[target], seed.pristine[target].data(),
           seed.pristine[target].size());
  if (!recovered.ok()) return;
  // A recovery that claims success must hand back a usable index: the
  // accessors below would trip sanitizers on dangling or half-built state,
  // and a recovered index must answer a query without faulting.
  const MbiIndex& index = *recovered.value();
  MbiStats stats = index.GetStats();
  MBI_CHECK(stats.num_vectors == index.size());
  if (index.size() > 0) {
    std::vector<float> query(index.store().GetVector(0),
                             index.store().GetVector(0) + index.store().dim());
    SearchParams search;
    search.k = 4;
    QueryContext ctx(7);
    SearchResult result =
        index.Search(query.data(), TimeWindow::All(), search, &ctx);
    MBI_CHECK(result.size() <= search.k);
  }
}

void FuzzLogReplay(const uint8_t* data, size_t size) {
  MemReadableFile file(data, size);
  auto replay = persist::ReadLogRecords(&file);
  if (!replay.ok()) return;
  const persist::LogReplay& log = std::move(replay).value();
  // The clean prefix must frame-account exactly: 8 bytes of header per
  // record plus the payloads, never more than the input itself.
  uint64_t framed = 0;
  for (const std::string& record : log.records) {
    framed += 8 + record.size();
  }
  MBI_CHECK(framed == log.valid_bytes);
  MBI_CHECK(log.valid_bytes <= size);
  if (log.clean_eof) {
    MBI_CHECK(log.valid_bytes == size);
  }
}

void RunOne(const uint8_t* data, size_t size) {
  if (size == 0) return;
  const size_t target = data[0] % kNumTargets;
  if (target == kLogBuffer) {
    FuzzLogReplay(data + 1, size - 1);
  } else {
    FuzzRecover(target, data + 1, size - 1);
  }
}

}  // namespace
}  // namespace mbi

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  mbi::RunOne(data, size);
  return 0;
}

#ifndef MBI_FUZZER_DRIVER

namespace mbi {
namespace {

std::vector<uint8_t> Tagged(uint8_t target, const std::vector<uint8_t>& body) {
  std::vector<uint8_t> seed{target};
  seed.insert(seed.end(), body.begin(), body.end());
  return seed;
}

// Builds the seed corpus from real writer output so the fuzzer starts at
// valid inputs instead of spending its budget rediscovering the framing.
std::vector<std::vector<uint8_t>> MakeSeeds() {
  std::vector<std::vector<uint8_t>> seeds;

  // One seed per checkpoint file kind: the genuine file.
  const SeedDir& seed_dir = Seed();
  for (size_t i = 0; i < kNumFileTargets; ++i) {
    seeds.push_back(Tagged(static_cast<uint8_t>(i), seed_dir.pristine[i]));
  }

  // A genuine log with mixed-size records, and the same log torn
  // mid-record, the shape crash recovery actually sees.
  {
    const std::string path = seed_dir.dir + ".log";
    persist::FileSystem* fs = persist::FileSystem::Posix();
    auto file_result = fs->NewWritableFile(path);
    MBI_CHECK_OK(file_result.status());
    persist::LogWriter writer(std::move(file_result).value());
    MBI_CHECK_OK(writer.AddRecord("alpha", 5));
    std::vector<uint8_t> big(1024, 0xAB);
    MBI_CHECK_OK(writer.AddRecord(big.data(), big.size()));
    MBI_CHECK_OK(writer.AddRecord("", 0));
    MBI_CHECK_OK(writer.Close());
    std::vector<uint8_t> seed = Tagged(kLogBuffer, ReadAll(path));
    MBI_CHECK_OK(fs->DeleteFile(path));
    seeds.push_back(seed);
    seed.resize(seed.size() - 7);  // tear the final record
    seeds.push_back(std::move(seed));
  }

  // Near-empty inputs: an empty MANIFEST and a two-byte log.
  seeds.push_back({kManifest});
  seeds.push_back({kLogBuffer, 0xFF, 0xFF});
  return seeds;
}

void RemoveSeedDir() { std::filesystem::remove_all(Seed().dir); }

int MakeCorpus(const std::string& dir) {
  const std::vector<std::vector<uint8_t>> seeds = MakeSeeds();
  for (size_t i = 0; i < seeds.size(); ++i) {
    WriteAll(dir + "/seed_" + std::to_string(i), seeds[i].data(),
             seeds[i].size());
  }
  RemoveSeedDir();
  std::printf("fuzz_checkpoint_recover: wrote %zu seeds to %s\n",
              seeds.size(), dir.c_str());
  return 0;
}

// Deterministic no-fuzzer smoke: every seed as-is, then `rounds` mutants
// per seed (single byte flip or truncation) from a fixed Rng stream. Under
// MBI_SANITIZE this shakes out the same class of bug a short libFuzzer run
// would, without requiring a libFuzzer-capable toolchain.
int Smoke(size_t rounds) {
  const std::vector<std::vector<uint8_t>> seeds = MakeSeeds();
  Rng rng(0xF0CC5EED);
  size_t executed = 0;
  for (const std::vector<uint8_t>& seed : seeds) {
    RunOne(seed.data(), seed.size());
    ++executed;
    for (size_t round = 0; round < rounds; ++round) {
      std::vector<uint8_t> mutant = seed;
      if (mutant.size() > 1 && rng.NextBounded(4) == 0) {
        mutant.resize(1 + rng.NextBounded(mutant.size() - 1));
      }
      if (!mutant.empty()) {
        const size_t pos = rng.NextBounded(mutant.size());
        mutant[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
      }
      RunOne(mutant.data(), mutant.size());
      ++executed;
    }
  }
  RemoveSeedDir();
  std::printf("fuzz_checkpoint_recover: smoke OK (%zu inputs)\n", executed);
  return 0;
}

}  // namespace
}  // namespace mbi

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--make-corpus") == 0) {
    return mbi::MakeCorpus(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--smoke") == 0) {
    const size_t rounds =
        argc >= 3 ? static_cast<size_t>(std::atoi(argv[2])) : 200;
    return mbi::Smoke(rounds);
  }
  if (argc >= 2) {
    // Replay explicit input files (crash reproduction outside libFuzzer).
    for (int i = 1; i < argc; ++i) {
      std::vector<uint8_t> bytes = mbi::ReadAll(argv[i]);
      mbi::RunOne(bytes.data(), bytes.size());
      std::printf("fuzz_checkpoint_recover: %s OK\n", argv[i]);
    }
    mbi::RemoveSeedDir();
    return 0;
  }
  return mbi::Smoke(200);
}

#endif  // MBI_FUZZER_DRIVER
