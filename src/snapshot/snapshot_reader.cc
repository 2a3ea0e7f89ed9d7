// OpenSnapshot: map an arena file read-only and rebuild a LiveState whose
// hot arrays are spans into the mapping.
//
// Validation order: stat/map -> header (magic, version, endianness, size)
// -> section table (bounds, alignment, kinds, table checksum) -> per-section
// checksums (optional) -> structural cross-checks (counts vs sizes,
// monotonic offset arrays, sorted keywords) -> one linear pass over the
// CSR (edge targets in range, edge weights finite and > 0, node weights
// finite and >= 0, stored weight invariants exact). Only after all of that
// are spans handed to the view-backed structures, so a corrupt file — even
// a re-checksummed one — fails with a clean Status and can never index out
// of the mapping. Rids are not checked against the storage layer.
//
// This file owns the only mmap/munmap calls in the tree outside tests
// (tools/banks_lint.py, snapshot-io-confinement).
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snapshot/snapshot.h"
#include "snapshot/snapshot_format.h"

namespace banks {
namespace snapshot {

namespace {

/// RAII read-only mapping; the shared_ptr<const MappedFile> handed to the
/// view structures keeps the pages mapped until the last epoch holder
/// drops out.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (data_ != nullptr) ::munmap(data_, size_);
  }

  Status Map(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IoError("snapshot: cannot open '" + path + "'");
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IoError("snapshot: cannot stat '" + path + "'");
    }
    if (st.st_size < static_cast<off_t>(sizeof(SnapshotHeader))) {
      ::close(fd);
      return Status::Corruption("snapshot: '" + path +
                                "' is smaller than a header");
    }
    void* p = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) {
      return Status::IoError("snapshot: cannot map '" + path + "'");
    }
    data_ = p;
    size_ = static_cast<size_t>(st.st_size);
    return Status::OK();
  }

  const char* data() const { return static_cast<const char*>(data_); }
  size_t size() const { return size_; }

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
};

/// A validated section: pointer into the mapping + size.
struct Section {
  const char* data = nullptr;
  uint64_t size = 0;
};

template <typename T>
std::span<const T> SectionSpan(const Section& s) {
  return {reinterpret_cast<const T*>(s.data), s.size / sizeof(T)};
}

/// Checks `offsets` is a monotonic prefix-sum array ending at `total`.
bool OffsetsValid(std::span<const uint64_t> offsets, uint64_t total) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != total) {
    return false;
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return true;
}

bool OffsetsValid32(std::span<const uint32_t> offsets, uint64_t total) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != total) {
    return false;
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return true;
}

/// The keyword section is what InvertedIndex::Lookup binary-searches:
/// non-empty keywords in strictly ascending order, each with at least one
/// posting. Offsets must already be known in bounds (OffsetsValid).
bool KeywordsValid(std::string_view blob, std::span<const uint64_t> offsets,
                   std::span<const uint64_t> posting_offsets) {
  std::string_view prev;
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i + 1] == offsets[i] ||
        posting_offsets[i + 1] == posting_offsets[i]) {
      return false;
    }
    const std::string_view kw =
        blob.substr(offsets[i], offsets[i + 1] - offsets[i]);
    if (i > 0 && !(prev < kw)) return false;
    prev = kw;
  }
  return true;
}

/// The CSR semantics FrozenGraph and the expansion iterators rely on, in
/// one linear pass: every edge target names a node, every edge weight is
/// finite and > 0 (Dijkstra's precondition), every node weight is finite
/// and >= 0, and the stored invariants equal the values the arrays give.
/// Offsets must already be known valid (OffsetsValid32).
Status GraphValid(const SnapshotMeta& meta, FrozenGraph::EdgeSpan out_edges,
                  FrozenGraph::EdgeSpan in_edges,
                  std::span<const double> node_weights) {
  // The flags accumulate without a branch per element (a NaN fails every
  // comparison), so the pass costs little more than reading the arrays.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool bad_target = false;
  bool bad_edge_weight = false;
  double min_edge_weight = kInf;
  for (const GraphEdge& e : out_edges) {
    bad_target |= e.to >= meta.num_nodes;
    bad_edge_weight |= !(e.weight > 0 && e.weight < kInf);
    min_edge_weight = std::min(min_edge_weight, e.weight);
  }
  for (const GraphEdge& e : in_edges) {
    bad_target |= e.to >= meta.num_nodes;
    bad_edge_weight |= !(e.weight > 0 && e.weight < kInf);
  }
  bool bad_node_weight = false;
  for (const double w : node_weights) {
    bad_node_weight |= !(w >= 0 && w < kInf);
  }
  if (bad_target) {
    return Status::Corruption("snapshot: edge target out of range");
  }
  if (bad_edge_weight) {
    return Status::Corruption("snapshot: edge weight not finite and positive");
  }
  if (bad_node_weight) {
    return Status::Corruption(
        "snapshot: node weight not finite and non-negative");
  }
  if (meta.max_node_weight != MaxNodeWeightOf(node_weights) ||
      meta.min_edge_weight != min_edge_weight) {
    return Status::Corruption(
        "snapshot: stored weight invariants disagree with the arrays");
  }
  return Status::OK();
}

/// Bounds-checked cursor over the metadata blob.
class BlobReader {
 public:
  explicit BlobReader(Section s) : p_(s.data), end_(s.data + s.size) {}

  bool AtEnd() const { return p_ == end_; }

  bool ReadU32(uint32_t* v) {
    if (end_ - p_ < static_cast<ptrdiff_t>(sizeof(uint32_t))) return false;
    std::memcpy(v, p_, sizeof(uint32_t));
    p_ += sizeof(uint32_t);
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (end_ - p_ < static_cast<ptrdiff_t>(len)) return false;
    s->assign(p_, len);
    p_ += len;
    return true;
  }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace

Result<OpenedSnapshot> OpenSnapshot(const std::string& path,
                                    const SnapshotOpenOptions& options) {
  auto mapped = std::make_shared<MappedFile>();
  if (Status s = mapped->Map(path); !s.ok()) return s;
  const char* base = mapped->data();
  const size_t file_size = mapped->size();

  SnapshotHeader header{};
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("snapshot: bad magic in '" + path + "'");
  }
  if (header.endian != kEndianMarker) {
    return Status::InvalidArgument(
        "snapshot: '" + path +
        "' was written on a machine with different endianness");
  }
  if (header.version != kVersion) {
    return Status::InvalidArgument(
        "snapshot: '" + path + "' has unsupported format version " +
        std::to_string(header.version) + " (expected " +
        std::to_string(kVersion) + ")");
  }
  if (header.file_bytes != file_size) {
    return Status::Corruption(
        "snapshot: '" + path + "' is truncated or padded (header says " +
        std::to_string(header.file_bytes) + " bytes, file has " +
        std::to_string(file_size) + ")");
  }
  if (header.section_count != kNumSections) {
    return Status::Corruption("snapshot: unexpected section count " +
                              std::to_string(header.section_count));
  }

  const uint64_t table_bytes =
      uint64_t{kNumSections} * sizeof(SectionEntry);
  if (sizeof(SnapshotHeader) + table_bytes > file_size) {
    return Status::Corruption("snapshot: section table out of bounds");
  }
  const char* table_base = base + sizeof(SnapshotHeader);
  if (SnapshotChecksum(table_base, table_bytes) != header.table_checksum) {
    return Status::Corruption("snapshot: section table checksum mismatch");
  }

  // Validate and index the sections by kind.
  Section sections[kNumSections + 1];  // 1-based by SectionKind
  for (uint32_t i = 0; i < kNumSections; ++i) {
    SectionEntry e{};
    std::memcpy(&e, table_base + i * sizeof(SectionEntry), sizeof(e));
    if (e.kind < 1 || e.kind > kNumSections || e.kind != i + 1) {
      return Status::Corruption("snapshot: unexpected section kind " +
                                std::to_string(e.kind));
    }
    if (e.offset % kSectionAlignment != 0 || e.offset > file_size ||
        e.size > file_size - e.offset) {
      return Status::Corruption("snapshot: section " + std::to_string(e.kind) +
                                " out of bounds");
    }
    if (options.verify_checksums &&
        SnapshotChecksum(base + e.offset, e.size) != e.checksum) {
      return Status::Corruption("snapshot: checksum mismatch in section " +
                                std::to_string(e.kind));
    }
    sections[e.kind] = Section{base + e.offset, e.size};
  }

  // Structural cross-checks against the meta section.
  if (sections[kMeta].size != sizeof(SnapshotMeta)) {
    return Status::Corruption("snapshot: meta section has wrong size");
  }
  SnapshotMeta meta{};
  std::memcpy(&meta, sections[kMeta].data, sizeof(meta));
  if (options.expect_db_fingerprint != 0 && meta.db_fingerprint != 0 &&
      meta.db_fingerprint != options.expect_db_fingerprint) {
    return Status::FailedPrecondition(
        "snapshot: '" + path +
        "' was written against a different database (fingerprint mismatch)");
  }

  const auto expect = [&](SectionKind kind, uint64_t bytes) {
    return sections[kind].size == bytes;
  };
  if (!expect(kOutOffsets, (meta.num_nodes + 1) * sizeof(uint32_t)) ||
      !expect(kInOffsets, (meta.num_nodes + 1) * sizeof(uint32_t)) ||
      !expect(kOutEdges, meta.num_edges * sizeof(GraphEdge)) ||
      !expect(kInEdges, meta.num_edges * sizeof(GraphEdge)) ||
      !expect(kNodeWeights, meta.num_nodes * sizeof(double)) ||
      !expect(kNodeRids, meta.num_nodes * sizeof(Rid)) ||
      !expect(kKeywordOffsets, (meta.num_keywords + 1) * sizeof(uint64_t)) ||
      !expect(kPostingOffsets, (meta.num_keywords + 1) * sizeof(uint64_t)) ||
      !expect(kPostings, meta.num_postings * sizeof(Rid)) ||
      !expect(kNumericValues, meta.num_numeric_values * sizeof(double)) ||
      !expect(kNumericOffsets,
              meta.num_numeric_values == 0
                  ? sizeof(uint64_t)
                  : (meta.num_numeric_values + 1) * sizeof(uint64_t)) ||
      !expect(kNumericRids, meta.num_numeric_entries * sizeof(Rid))) {
    return Status::Corruption(
        "snapshot: section sizes disagree with recorded counts");
  }

  const auto out_offsets = SectionSpan<uint32_t>(sections[kOutOffsets]);
  const auto in_offsets = SectionSpan<uint32_t>(sections[kInOffsets]);
  const auto out_edges = SectionSpan<GraphEdge>(sections[kOutEdges]);
  const auto in_edges = SectionSpan<GraphEdge>(sections[kInEdges]);
  const auto node_weights = SectionSpan<double>(sections[kNodeWeights]);
  const auto node_rids = SectionSpan<Rid>(sections[kNodeRids]);
  const auto keyword_offsets = SectionSpan<uint64_t>(sections[kKeywordOffsets]);
  const auto posting_offsets = SectionSpan<uint64_t>(sections[kPostingOffsets]);
  const auto postings = SectionSpan<Rid>(sections[kPostings]);
  const auto numeric_values = SectionSpan<double>(sections[kNumericValues]);
  const auto numeric_offsets = SectionSpan<uint64_t>(sections[kNumericOffsets]);
  const auto numeric_rids = SectionSpan<Rid>(sections[kNumericRids]);

  if (!OffsetsValid32(out_offsets, meta.num_edges) ||
      !OffsetsValid32(in_offsets, meta.num_edges) ||
      !OffsetsValid(keyword_offsets, sections[kKeywordBlob].size) ||
      !OffsetsValid(posting_offsets, meta.num_postings) ||
      !OffsetsValid(numeric_offsets, meta.num_numeric_entries)) {
    return Status::Corruption("snapshot: inconsistent offset arrays");
  }
  const std::string_view keyword_blob(sections[kKeywordBlob].data,
                                      sections[kKeywordBlob].size);
  if (!KeywordsValid(keyword_blob, keyword_offsets, posting_offsets)) {
    return Status::Corruption(
        "snapshot: keywords empty, unsorted or without postings");
  }
  for (size_t i = 1; i < numeric_values.size(); ++i) {
    if (!(numeric_values[i - 1] < numeric_values[i])) {
      return Status::Corruption("snapshot: numeric values not ascending");
    }
  }
  if (Status s = GraphValid(meta, out_edges, in_edges, node_weights);
      !s.ok()) {
    return s;
  }

  const std::shared_ptr<const void> arena = mapped;

  auto state = std::make_shared<LiveState>();
  state->epoch = header.epoch;
  state->pending_mutations = 0;

  // Graph: CSR arrays stay mapped; node_rid is bulk-copied (DataGraph owns
  // it as a vector) and the rid->node hash is rebuilt.
  auto dg = std::make_shared<DataGraph>();
  dg->graph = FrozenGraph(out_offsets, out_edges, in_offsets, in_edges,
                          node_weights, meta.max_node_weight,
                          meta.min_edge_weight, arena);
  dg->node_rid.assign(node_rids.begin(), node_rids.end());
  dg->rid_node.reserve(dg->node_rid.size());
  for (NodeId n = 0; n < dg->node_rid.size(); ++n) {
    dg->rid_node.emplace(dg->node_rid[n].Pack(), n);
  }
  state->dg = std::move(dg);

  // Inverted index: the file's sections are its layout, adopted in place.
  state->index = std::make_shared<InvertedIndex>(
      keyword_blob, keyword_offsets, posting_offsets, postings, arena);

  // Metadata index: schema-sized; parsed and rebuilt owning.
  std::vector<std::pair<std::string, std::vector<MetadataMatch>>> meta_entries;
  {
    BlobReader blob(sections[kMetadataBlob]);
    while (!blob.AtEnd()) {
      std::string tok;
      uint32_t count = 0;
      if (!blob.ReadString(&tok) || !blob.ReadU32(&count)) {
        return Status::Corruption("snapshot: malformed metadata records");
      }
      std::vector<MetadataMatch> ms;
      ms.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        MetadataMatch m;
        if (!blob.ReadString(&m.table) || !blob.ReadString(&m.column)) {
          return Status::Corruption("snapshot: malformed metadata records");
        }
        ms.push_back(std::move(m));
      }
      meta_entries.emplace_back(std::move(tok), std::move(ms));
    }
  }
  auto metadata = std::make_shared<MetadataIndex>();
  metadata->Restore(std::move(meta_entries));
  state->metadata = std::move(metadata);

  auto numeric = std::make_shared<NumericIndex>();
  numeric->AttachViews(numeric_values, numeric_offsets, numeric_rids, arena);
  state->numeric = std::move(numeric);

  OpenedSnapshot opened;
  opened.epoch = header.epoch;
  opened.file_bytes = file_size;
  opened.mapped_bytes = sections[kOutOffsets].size + sections[kInOffsets].size +
                        sections[kOutEdges].size + sections[kInEdges].size +
                        sections[kNodeWeights].size +
                        sections[kKeywordBlob].size +
                        sections[kKeywordOffsets].size +
                        sections[kPostingOffsets].size +
                        sections[kPostings].size +
                        sections[kNumericValues].size +
                        sections[kNumericOffsets].size +
                        sections[kNumericRids].size;
  opened.copied_bytes = sections[kNodeRids].size + sections[kMetadataBlob].size;
  opened.db_fingerprint = meta.db_fingerprint;
  opened.state = std::move(state);
  return opened;
}

}  // namespace snapshot
}  // namespace banks
