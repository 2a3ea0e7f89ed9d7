// Snapshot persistence (src/snapshot/): the round-trip property — a state
// saved and reopened must be byte-identical (LiveStatesIdentical) to the
// state that was built, and an engine restarted from the file must answer
// every query exactly like the engine that kept running — plus the
// corruption surface: a truncated, relabelled, or bit-flipped file must
// come back as a clean Status error, never UB, and version/endianness
// mismatches are rejected up front.
//
// Raw fstream IO below is test scaffolding for corrupting files; the lint
// rule snapshot-io-confinement only restricts the mmap() family, and only
// inside the walked source trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/banks.h"
#include "datagen/dblp_gen.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_format.h"
#include "update/state_compare.h"

namespace banks {
namespace {

using snapshot::OpenedSnapshot;
using snapshot::OpenSnapshot;
using snapshot::SectionEntry;
using snapshot::SnapshotHeader;
using snapshot::WriteSnapshot;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

Database SmallDb(uint64_t seed = 42) {
  DblpConfig config;
  config.seed = seed;
  config.num_authors = 60;
  config.num_papers = 120;
  Database db = GenerateDblp(config).db;
  // DBLP tables are all-string; add a small numeric-bearing table so the
  // numeric-index sections of every snapshot this file writes are
  // non-empty and round-trip real data.
  EXPECT_TRUE(db.CreateTable(TableSchema("Venue",
                                         {{"VenueId", ValueType::kString},
                                          {"Year", ValueType::kInt}},
                                         {"VenueId"}))
                  .ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(db.Insert("Venue", Tuple({Value("V" + std::to_string(i)),
                                          Value(int64_t{1990 + i % 6})}))
                    .ok());
  }
  return db;
}

std::vector<std::string> RenderedAnswers(const BanksEngine& engine,
                                         const std::string& query) {
  std::vector<std::string> out;
  auto result = engine.Search({.text = query});
  if (!result.ok()) {
    out.push_back(result.status().ToString());
    return out;
  }
  for (const auto& tree : result.value().answers) {
    out.push_back(engine.Render(tree));
  }
  return out;
}

const char* kQueryBattery[] = {"soumen sunita", "gray transaction",
                               "seltzer sunita", "mohan", "year:1995"};

// ------------------------------------------------------------ round trip

TEST(SnapshotRoundTrip, FreshBuildSurvivesSaveLoad) {
  BanksEngine engine(SmallDb());
  const std::string path = TempPath("fresh.banks");
  auto written = engine.SaveSnapshot(path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written.value().epoch, 0u);
  EXPECT_GT(written.value().file_bytes, sizeof(SnapshotHeader));
  EXPECT_EQ(engine.snapshot_bytes(), written.value().file_bytes);

  auto opened = OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::string diff;
  EXPECT_TRUE(
      LiveStatesIdentical(*engine.state(), *opened.value().state, &diff))
      << diff;
  EXPECT_EQ(opened.value().epoch, 0u);
  EXPECT_EQ(opened.value().file_bytes, written.value().file_bytes);
}

TEST(SnapshotRoundTrip, MutationBurstsThenRefreezeThenSaveLoad) {
  // The property at the heart of the subsystem: random mutation bursts,
  // refreeze, save, load — the loaded state must be byte-identical and
  // a FromSnapshot engine must serve the exact answers of the builder.
  for (uint64_t seed : {7u, 19u}) {
    BanksEngine engine(SmallDb(seed));
    std::mt19937 rng(static_cast<uint32_t>(seed));
    const Table* papers = engine.db().table("Paper");
    ASSERT_NE(papers, nullptr);
    for (int burst = 0; burst < 3; ++burst) {
      for (int i = 0; i < 15; ++i) {
        const int roll = static_cast<int>(rng() % 3);
        if (roll == 0) {
          ASSERT_TRUE(engine
                          .InsertTuple(
                              "Paper",
                              Tuple({Value("PX" + std::to_string(burst) + "_" +
                                           std::to_string(i)),
                                     Value("snapshot roundtrip volume " +
                                           std::to_string(i))}))
                          .ok());
        } else if (roll == 1) {
          const uint32_t row = static_cast<uint32_t>(rng() % papers->num_rows());
          if (!papers->IsDeleted(row)) {
            (void)engine.DeleteTuple(Rid{papers->id(), row});
          }
        } else {
          const uint32_t row = static_cast<uint32_t>(rng() % papers->num_rows());
          if (!papers->IsDeleted(row)) {
            (void)engine.UpdateValue(
                Rid{papers->id(), row}, "PaperName",
                Value("retitled in burst " + std::to_string(burst)));
          }
        }
      }
      ASSERT_TRUE(engine.Refreeze(/*force=*/true).ok());
    }
    ASSERT_EQ(engine.pending_mutations(), 0u);

    const std::string path = TempPath("bursts.banks");
    auto written = engine.SaveSnapshot(path);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    EXPECT_EQ(written.value().epoch, engine.epoch());

    auto opened =
        OpenSnapshot(path, {.verify_checksums = true,
                            .expect_db_fingerprint =
                                snapshot::DatabaseFingerprint(engine.db())});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::string diff;
    ASSERT_TRUE(
        LiveStatesIdentical(*engine.state(), *opened.value().state, &diff))
        << "seed " << seed << ": " << diff;
    EXPECT_EQ(opened.value().state->epoch, engine.epoch());
  }
}

TEST(SnapshotRoundTrip, LoadedStateIsMappedNotCopied) {
  BanksEngine engine(SmallDb());
  const std::string path = TempPath("views.banks");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  auto opened = OpenSnapshot(path);
  ASSERT_TRUE(opened.ok());
  const LiveState& st = *opened.value().state;
  // The zero-copy contract: every hot array reads straight from the
  // mapping. The small lookup structures (rid map, metadata records) are
  // the only copies, and their byte count stays far below the mapped one.
  EXPECT_TRUE(st.dg->graph.is_view());
  EXPECT_TRUE(st.index->is_view());
  EXPECT_TRUE(st.numeric->is_view());
  EXPECT_GT(opened.value().mapped_bytes, 0u);
  EXPECT_LT(opened.value().copied_bytes, opened.value().file_bytes);
}

TEST(SnapshotRoundTrip, SaveRefreezesPendingMutationsFirst) {
  BanksEngine engine(SmallDb());
  ASSERT_TRUE(engine
                  .InsertTuple("Paper", Tuple({Value("PPEND"),
                                               Value("pending snapshot")}))
                  .ok());
  EXPECT_GT(engine.pending_mutations(), 0u);
  const uint64_t epoch_before = engine.epoch();
  const std::string path = TempPath("pending.banks");
  auto written = engine.SaveSnapshot(path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(engine.pending_mutations(), 0u)
      << "SaveSnapshot must fold pending overlays before serializing";
  EXPECT_EQ(written.value().epoch, epoch_before + 1);
}

TEST(SnapshotRoundTrip, WriteRejectsStatesWithOverlays) {
  BanksEngine engine(SmallDb());
  ASSERT_TRUE(engine
                  .InsertTuple("Paper", Tuple({Value("POVER"),
                                               Value("overlay pending")}))
                  .ok());
  auto written =
      WriteSnapshot(*engine.state(), TempPath("overlay.banks"));
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- engine continuation

TEST(SnapshotEngine, LoadedEngineKeepsMutatingInLockstepWithBuilder) {
  // Detach-on-mutate end to end: an engine restarted from a snapshot and
  // an engine that never stopped apply the same mutations and refreeze;
  // their states must stay identical (the loaded engine's first refreeze
  // is a full rebuild off the mapped views).
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  DblpDataset a = GenerateDblp(config);
  DblpDataset b = GenerateDblp(config);

  BanksEngine builder(std::move(a.db));
  const std::string path = TempPath("lockstep.banks");
  ASSERT_TRUE(builder.SaveSnapshot(path).ok());
  auto restarted = BanksEngine::FromSnapshot(std::move(b.db), path);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  BanksEngine& loaded = *restarted.value();

  for (BanksEngine* e : {&builder, &loaded}) {
    ASSERT_TRUE(e->InsertTuple("Author", Tuple({Value("ANEW"),
                                                Value("newcomer snapshot")}))
                    .ok());
    ASSERT_TRUE(
        e->InsertTuple("Paper",
                       Tuple({Value("PNEW"),
                              Value("mapped views detach cleanly")}))
            .ok());
    ASSERT_TRUE(e->Refreeze(/*force=*/true).ok());
  }
  std::string diff;
  EXPECT_TRUE(LiveStatesIdentical(*builder.state(), *loaded.state(), &diff))
      << diff;
  for (const char* q : kQueryBattery) {
    EXPECT_EQ(RenderedAnswers(builder, q), RenderedAnswers(loaded, q)) << q;
  }
}

TEST(SnapshotEngine, FromSnapshotRejectsFingerprintMismatch) {
  BanksEngine engine(SmallDb(/*seed=*/42));
  const std::string path = TempPath("fp.banks");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  // A different database (different seed => different rows) must be
  // refused: NodeId->Rid maps in the file would point at the wrong rows.
  auto mismatched = BanksEngine::FromSnapshot(SmallDb(/*seed=*/43), path);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotEngine, RefreezeRotatesTheEpochFile) {
  DblpConfig config;
  config.num_authors = 40;
  config.num_papers = 80;
  const std::string path = TempPath("rotate.banks");
  BanksOptions options;
  options.update.snapshot_path = path;
  BanksEngine engine(GenerateDblp(config).db, options);
  EXPECT_EQ(engine.snapshot_epoch(), 0u);  // nothing written yet

  ASSERT_TRUE(engine
                  .InsertTuple("Paper", Tuple({Value("PROT"),
                                               Value("rotation epoch file")}))
                  .ok());
  auto stats = engine.Refreeze(/*force=*/true);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats.value().snapshot_failed);
  EXPECT_GT(stats.value().snapshot_bytes, 0u);
  EXPECT_EQ(engine.snapshot_epoch(), engine.epoch());

  // The rotated file is immediately loadable and matches the live state.
  auto opened = OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::string diff;
  EXPECT_TRUE(
      LiveStatesIdentical(*engine.state(), *opened.value().state, &diff))
      << diff;
}

// A rotation that cannot write leaves the previous epoch file untouched:
// a directory squatting on `<path>.tmp` makes the temp-file open fail.
// The refreeze itself still succeeds (serving already moved on), and the
// old file still restarts an engine. Power loss itself cannot be
// simulated here; the fsyncs around the rename are what cover it.
TEST(SnapshotEngine, FailedRotationKeepsThePreviousEpochFile) {
  DblpConfig config;
  config.num_authors = 40;
  config.num_papers = 80;
  const std::string path = TempPath("failed_rotation.banks");
  const std::string tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  BanksOptions options;
  options.update.snapshot_path = path;
  BanksEngine engine(GenerateDblp(config).db, options);
  const Tuple first({Value("PROT1"), Value("first rotation")});
  ASSERT_TRUE(engine.InsertTuple("Paper", first).ok());
  auto rotated = engine.Refreeze(/*force=*/true);
  ASSERT_TRUE(rotated.ok());
  ASSERT_FALSE(rotated.value().snapshot_failed);
  const uint64_t kept_epoch = engine.epoch();
  const LiveStateSnapshot kept_state = engine.state();
  const std::string kept_bytes = ReadFile(path);

  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  ASSERT_TRUE(engine
                  .InsertTuple("Paper", Tuple({Value("PROT2"),
                                               Value("second rotation")}))
                  .ok());
  auto failed = engine.Refreeze(/*force=*/true);
  ASSERT_TRUE(failed.ok()) << "a failed write never fails the refreeze";
  EXPECT_TRUE(failed.value().snapshot_failed);
  EXPECT_EQ(engine.epoch(), kept_epoch + 1);
  EXPECT_EQ(engine.snapshot_epoch(), kept_epoch);
  EXPECT_TRUE(std::filesystem::is_directory(tmp))
      << "the failed write must not remove what sits at the temp path";
  EXPECT_EQ(ReadFile(path), kept_bytes);

  // The previous epoch still restarts an engine over its database.
  Database db = GenerateDblp(config).db;
  ASSERT_TRUE(db.Insert("Paper", first).ok());
  auto restarted = BanksEngine::FromSnapshot(std::move(db), path);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ(restarted.value()->epoch(), kept_epoch);
  std::string diff;
  EXPECT_TRUE(
      LiveStatesIdentical(*kept_state, *restarted.value()->state(), &diff))
      << diff;
  std::filesystem::remove_all(tmp);
}

// ----------------------------------------------------------- corruption

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // File names are per test: ctest runs these tests as concurrent
    // processes, and a file rewritten under another process's mapping
    // faults that process.
    name_ = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    BanksEngine engine(SmallDb());
    path_ = TempPath(name_ + "_base.banks");
    ASSERT_TRUE(engine.SaveSnapshot(path_).ok());
    bytes_ = ReadFile(path_);
    ASSERT_GE(bytes_.size(), sizeof(SnapshotHeader));
  }

  /// Writes a mutated copy and expects OpenSnapshot to fail cleanly.
  void ExpectRejected(const std::string& mutated, const std::string& what) {
    const std::string path = TempPath(name_ + "_case.banks");
    WriteFile(path, mutated);
    auto opened = OpenSnapshot(path);
    EXPECT_FALSE(opened.ok()) << what;
  }

  std::string name_;
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotCorruption, TruncatedFilesAreRejected) {
  for (size_t keep : {size_t{0}, size_t{8}, sizeof(SnapshotHeader),
                      bytes_.size() / 2, bytes_.size() - 1}) {
    ExpectRejected(bytes_.substr(0, keep),
                   "truncated to " + std::to_string(keep) + " bytes");
  }
}

TEST_F(SnapshotCorruption, BadMagicAndPaddedFilesAreRejected) {
  std::string mutated = bytes_;
  mutated[0] = 'X';
  ExpectRejected(mutated, "bad magic");
  ExpectRejected(bytes_ + std::string(16, '\0'), "trailing padding");
}

TEST_F(SnapshotCorruption, VersionAndEndiannessMismatchesAreRejected) {
  SnapshotHeader header;
  std::memcpy(&header, bytes_.data(), sizeof(header));

  std::string versioned = bytes_;
  SnapshotHeader bumped = header;
  bumped.version = snapshot::kVersion + 1;
  std::memcpy(versioned.data(), &bumped, sizeof(bumped));
  {
    const std::string path = TempPath("version.banks");
    WriteFile(path, versioned);
    auto opened = OpenSnapshot(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("version"), std::string::npos)
        << opened.status().ToString();
  }

  std::string crossed = bytes_;
  SnapshotHeader swapped = header;
  swapped.endian = __builtin_bswap32(snapshot::kEndianMarker);
  std::memcpy(crossed.data(), &swapped, sizeof(swapped));
  {
    const std::string path = TempPath("endian.banks");
    WriteFile(path, crossed);
    auto opened = OpenSnapshot(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("endian"), std::string::npos)
        << opened.status().ToString();
  }
}

TEST_F(SnapshotCorruption, FlippedByteInEverySectionIsRejected) {
  SnapshotHeader header;
  std::memcpy(&header, bytes_.data(), sizeof(header));
  ASSERT_EQ(header.section_count, snapshot::kNumSections);
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), bytes_.data() + sizeof(header),
              table.size() * sizeof(SectionEntry));

  // The section table itself is checksummed too.
  {
    std::string mutated = bytes_;
    mutated[sizeof(header) + offsetof(SectionEntry, size)] ^= 0x01;
    ExpectRejected(mutated, "flipped section-table byte");
  }
  for (const SectionEntry& entry : table) {
    if (entry.size == 0) continue;
    std::string mutated = bytes_;
    mutated[entry.offset + entry.size / 2] =
        static_cast<char>(mutated[entry.offset + entry.size / 2] ^ 0xFF);
    ExpectRejected(mutated, "flipped byte in section kind " +
                                std::to_string(entry.kind));
  }
}

/// Recomputes every section checksum and the table checksum of a mutated
/// file, so only the semantic checks can reject it.
void Rechecksum(std::string* file) {
  SnapshotHeader header;
  std::memcpy(&header, file->data(), sizeof(header));
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), file->data() + sizeof(header),
              table.size() * sizeof(SectionEntry));
  for (SectionEntry& entry : table) {
    entry.checksum =
        snapshot::SnapshotChecksum(file->data() + entry.offset, entry.size);
  }
  std::memcpy(file->data() + sizeof(header), table.data(),
              table.size() * sizeof(SectionEntry));
  header.table_checksum = snapshot::SnapshotChecksum(
      file->data() + sizeof(header), table.size() * sizeof(SectionEntry));
  std::memcpy(file->data(), &header, sizeof(header));
}

TEST_F(SnapshotCorruption, UnsortedOrEmptyKeywordsAreRejected) {
  // Lookup binary-searches the mapped keyword blob, so a re-checksummed
  // file whose keywords are out of order would silently miss keywords.
  SnapshotHeader header;
  std::memcpy(&header, bytes_.data(), sizeof(header));
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), bytes_.data() + sizeof(header),
              table.size() * sizeof(SectionEntry));
  const SectionEntry& blob = table[snapshot::kKeywordBlob - 1];
  const SectionEntry& offsets_entry = table[snapshot::kKeywordOffsets - 1];
  ASSERT_EQ(blob.kind, snapshot::kKeywordBlob);
  ASSERT_EQ(offsets_entry.kind, snapshot::kKeywordOffsets);
  std::vector<uint64_t> offsets(offsets_entry.size / sizeof(uint64_t));
  std::memcpy(offsets.data(), bytes_.data() + offsets_entry.offset,
              offsets_entry.size);

  // Two adjacent keywords of equal length: swapping them keeps every
  // offset valid but breaks the order.
  size_t i = 0;
  while (i + 2 < offsets.size() &&
         offsets[i + 1] - offsets[i] != offsets[i + 2] - offsets[i + 1]) {
    ++i;
  }
  ASSERT_LT(i + 2, offsets.size()) << "no two adjacent equal-length keywords";
  const size_t len = offsets[i + 1] - offsets[i];
  {
    std::string mutated = bytes_;
    char* first = mutated.data() + blob.offset + offsets[i];
    std::swap_ranges(first, first + len, first + len);
    Rechecksum(&mutated);
    const std::string path = TempPath("unsorted_keywords.banks");
    WriteFile(path, mutated);
    auto opened = OpenSnapshot(path);
    ASSERT_FALSE(opened.ok()) << "swapped keywords";
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << opened.status().ToString();
  }
  {
    // An empty keyword: keyword i's bytes move to keyword i + 1.
    std::string mutated = bytes_;
    const uint64_t emptied = offsets[i];
    std::memcpy(mutated.data() + offsets_entry.offset +
                    (i + 1) * sizeof(uint64_t),
                &emptied, sizeof(emptied));
    Rechecksum(&mutated);
    const std::string path = TempPath("empty_keyword.banks");
    WriteFile(path, mutated);
    auto opened = OpenSnapshot(path);
    ASSERT_FALSE(opened.ok()) << "empty keyword";
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << opened.status().ToString();
  }
  {
    // The unmutated file re-checksums to itself and still opens.
    std::string same = bytes_;
    Rechecksum(&same);
    EXPECT_EQ(same, bytes_);
  }
}

/// Writes `value` at byte `at` of section `kind` in a re-checksummed copy
/// of `base`, so only the semantic checks can reject it, and expects a
/// kCorruption whose message contains `reason`.
template <typename T>
void ExpectRechecksummedRejected(const std::string& base,
                                 const std::string& path,
                                 snapshot::SectionKind kind, uint64_t at,
                                 T value, const std::string& reason) {
  SectionEntry entry;
  std::memcpy(&entry,
              base.data() + sizeof(SnapshotHeader) +
                  (kind - 1) * sizeof(SectionEntry),
              sizeof(entry));
  ASSERT_EQ(entry.kind, kind);
  ASSERT_LE(at + sizeof(T), entry.size);
  std::string mutated = base;
  std::memcpy(mutated.data() + entry.offset + at, &value, sizeof(value));
  Rechecksum(&mutated);
  WriteFile(path, mutated);
  auto opened = OpenSnapshot(path);
  ASSERT_FALSE(opened.ok()) << reason;
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
  EXPECT_NE(opened.status().message().find(reason), std::string::npos)
      << opened.status().ToString();
}

/// The stored meta section of a snapshot file.
snapshot::SnapshotMeta MetaOf(const std::string& file) {
  SectionEntry entry;
  std::memcpy(&entry,
              file.data() + sizeof(SnapshotHeader) +
                  (snapshot::kMeta - 1) * sizeof(SectionEntry),
              sizeof(entry));
  snapshot::SnapshotMeta meta;
  std::memcpy(&meta, file.data() + entry.offset, sizeof(meta));
  return meta;
}

// The expansion iterators index node arrays by edge target, so a
// re-checksummed file with one bad target would read out of bounds.
TEST_F(SnapshotCorruption, EdgeTargetsOutOfRangeAreRejected) {
  const snapshot::SnapshotMeta meta = MetaOf(bytes_);
  ASSERT_GT(meta.num_edges, 0u);
  const std::string path = TempPath(name_ + "_case.banks");
  const uint64_t last = (meta.num_edges - 1) * sizeof(GraphEdge);
  ExpectRechecksummedRejected(bytes_, path, snapshot::kOutEdges,
                              offsetof(GraphEdge, to),
                              static_cast<NodeId>(meta.num_nodes),
                              "edge target out of range");
  ExpectRechecksummedRejected(bytes_, path, snapshot::kInEdges,
                              last + offsetof(GraphEdge, to), kInvalidNode,
                              "edge target out of range");
}

// Dijkstra needs finite positive weights; the builder only ever emits them.
TEST_F(SnapshotCorruption, NonPositiveOrNonFiniteEdgeWeightsAreRejected) {
  const std::string path = TempPath(name_ + "_case.banks");
  for (double w : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    ExpectRechecksummedRejected(bytes_, path, snapshot::kOutEdges,
                                offsetof(GraphEdge, weight), w,
                                "edge weight not finite and positive");
  }
  ExpectRechecksummedRejected(bytes_, path, snapshot::kInEdges,
                              offsetof(GraphEdge, weight), 0.0,
                              "edge weight not finite and positive");
}

TEST_F(SnapshotCorruption, NegativeOrNonFiniteNodeWeightsAreRejected) {
  const std::string path = TempPath(name_ + "_case.banks");
  for (double w : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    ExpectRechecksummedRejected(bytes_, path, snapshot::kNodeWeights, 0, w,
                                "node weight not finite and non-negative");
  }
}

// Scores normalise by the stored maximum node weight and minimum edge
// weight (§2.3), so both must be the values the arrays give.
TEST_F(SnapshotCorruption, StoredWeightInvariantsMustMatchTheArrays) {
  const snapshot::SnapshotMeta meta = MetaOf(bytes_);
  const std::string path = TempPath(name_ + "_case.banks");
  ExpectRechecksummedRejected(
      bytes_, path, snapshot::kMeta,
      offsetof(snapshot::SnapshotMeta, max_node_weight),
      meta.max_node_weight + 1.0,
      "stored weight invariants disagree with the arrays");
  ExpectRechecksummedRejected(
      bytes_, path, snapshot::kMeta,
      offsetof(snapshot::SnapshotMeta, min_edge_weight),
      meta.min_edge_weight / 2,
      "stored weight invariants disagree with the arrays");
}

TEST_F(SnapshotCorruption, MissingFileIsACleanError) {
  auto opened = OpenSnapshot(TempPath("never_written.banks"));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace banks
