// WriteSnapshot: serialise one frozen LiveState into the arena format.
//
// The writer runs off the serving path (the refreeze coordinator calls it
// after publishing the new epoch), so it favours simplicity: staging
// buffers per section, one sequential pass over the file, checksums
// computed from the staged bytes, then the header/section table patched in
// at the front and the whole file renamed into place.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/snapshot.h"
#include "snapshot/snapshot_format.h"
#include "util/hash.h"

namespace banks {
namespace snapshot {

namespace {

void AppendU32(std::string* blob, uint32_t v) {
  blob->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendLenPrefixed(std::string* blob, const std::string& s) {
  AppendU32(blob, static_cast<uint32_t>(s.size()));
  blob->append(s);
}

// One staged payload section.
struct Staged {
  uint32_t kind = 0;
  const void* data = nullptr;
  uint64_t size = 0;
};

}  // namespace

uint64_t DatabaseFingerprint(const Database& db) {
  // Identity, not contents: table names/ids and row counts (total and
  // live). Enough to catch "snapshot from a different or mutated
  // database" without a full scan.
  uint64_t h = Fnv1a("banks-db-fingerprint-v1");
  for (const auto& name : db.table_names()) {
    const Table* t = db.table(name);
    HashCombine(&h, Fnv1a(name));
    HashCombine(&h, t->id());
    HashCombine(&h, t->num_rows());
    uint64_t live = 0;
    for (uint32_t r = 0; r < t->num_rows(); ++r) {
      if (!t->IsDeleted(r)) ++live;
    }
    HashCombine(&h, live);
  }
  return h;
}

Result<SnapshotWriteStats> WriteSnapshot(const LiveState& state,
                                         const std::string& path,
                                         uint64_t db_fingerprint) {
  const auto t0 = std::chrono::steady_clock::now();
  if (state.dg == nullptr || state.index == nullptr ||
      state.metadata == nullptr || state.numeric == nullptr) {
    return Status::InvalidArgument("snapshot: incomplete LiveState");
  }
  if (state.delta != nullptr || state.index_delta != nullptr ||
      state.pending_mutations != 0) {
    return Status::FailedPrecondition(
        "snapshot: state has pending overlays; refreeze before saving");
  }

  const FrozenGraph& g = state.dg->graph;
  const auto out_offsets = g.out_offsets();
  const auto in_offsets = g.in_offsets();
  const auto node_weights = g.node_weights();

  // Edges are re-staged with their 4 padding bytes zeroed so the file (and
  // its checksums) are byte-deterministic.
  auto stage_edges = [](FrozenGraph::EdgeSpan edges) {
    std::vector<GraphEdge> staged(edges.size());
    if (!staged.empty()) {
      // void* cast: GraphEdge is trivially copyable (NSDMIs only make it
      // non-trivial to default-construct); the memset zeroes its padding.
      std::memset(static_cast<void*>(staged.data()), 0,
                  staged.size() * sizeof(GraphEdge));
    }
    for (size_t i = 0; i < edges.size(); ++i) {
      staged[i].to = edges[i].to;
      staged[i].weight = edges[i].weight;
    }
    return staged;
  };
  const std::vector<GraphEdge> out_edges = stage_edges(g.out_edges());
  const std::vector<GraphEdge> in_edges = stage_edges(g.in_edges());

  // Inverted index: its layout is the file's — blob, offsets, postings.
  const InvertedIndex& index = *state.index;
  const std::string_view keyword_blob = index.keyword_blob();
  const std::span<const uint64_t> keyword_offsets = index.keyword_offsets();
  const std::span<const uint64_t> posting_offsets = index.posting_offsets();
  const std::span<const Rid> postings = index.all_postings();

  // Metadata index: tiny length-prefixed records, sorted token order.
  std::string metadata_blob;
  for (const auto& tok : state.metadata->AllTokens()) {
    AppendLenPrefixed(&metadata_blob, tok);
    const auto ms = state.metadata->Lookup(tok);
    AppendU32(&metadata_blob, static_cast<uint32_t>(ms.size()));
    for (const auto& m : ms) {
      AppendLenPrefixed(&metadata_blob, m.table);
      AppendLenPrefixed(&metadata_blob, m.column);
    }
  }

  // Numeric index: distinct ascending values + per-value rid ranges.
  std::vector<double> numeric_values;
  std::vector<uint64_t> numeric_offsets{0};
  std::vector<Rid> numeric_rids;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto& m : state.numeric->LookupRange(-kInf, kInf)) {
    if (numeric_values.empty() || numeric_values.back() != m.value) {
      if (!numeric_values.empty()) {
        numeric_offsets.push_back(numeric_rids.size());
      }
      numeric_values.push_back(m.value);
    }
    numeric_rids.push_back(m.rid);
  }
  if (!numeric_values.empty()) numeric_offsets.push_back(numeric_rids.size());

  SnapshotMeta meta{};
  meta.num_nodes = node_weights.size();
  meta.num_edges = out_edges.size();
  meta.num_keywords = index.num_keywords();
  meta.num_postings = postings.size();
  meta.num_numeric_values = numeric_values.size();
  meta.num_numeric_entries = numeric_rids.size();
  meta.max_node_weight = g.MaxNodeWeight();
  meta.min_edge_weight = g.MinEdgeWeight();
  meta.db_fingerprint = db_fingerprint;

  const std::vector<Rid>& node_rid = state.dg->node_rid;
  const Staged sections[kNumSections] = {
      {kMeta, &meta, sizeof(meta)},
      {kOutOffsets, out_offsets.data(), out_offsets.size_bytes()},
      {kInOffsets, in_offsets.data(), in_offsets.size_bytes()},
      {kOutEdges, out_edges.data(), out_edges.size() * sizeof(GraphEdge)},
      {kInEdges, in_edges.data(), in_edges.size() * sizeof(GraphEdge)},
      {kNodeWeights, node_weights.data(), node_weights.size_bytes()},
      {kNodeRids, node_rid.data(), node_rid.size() * sizeof(Rid)},
      {kKeywordBlob, keyword_blob.data(), keyword_blob.size()},
      {kKeywordOffsets, keyword_offsets.data(), keyword_offsets.size_bytes()},
      {kPostingOffsets, posting_offsets.data(), posting_offsets.size_bytes()},
      {kPostings, postings.data(), postings.size_bytes()},
      {kMetadataBlob, metadata_blob.data(), metadata_blob.size()},
      {kNumericValues, numeric_values.data(),
       numeric_values.size() * sizeof(double)},
      {kNumericOffsets, numeric_offsets.data(),
       numeric_offsets.size() * sizeof(uint64_t)},
      {kNumericRids, numeric_rids.data(), numeric_rids.size() * sizeof(Rid)},
  };

  // Lay out the file: header, table, 8-aligned payloads in kind order.
  std::vector<SectionEntry> table(kNumSections);
  uint64_t offset = sizeof(SnapshotHeader) + kNumSections * sizeof(SectionEntry);
  for (uint32_t i = 0; i < kNumSections; ++i) {
    offset = (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
    table[i].kind = sections[i].kind;
    table[i].reserved = 0;
    table[i].offset = offset;
    table[i].size = sections[i].size;
    table[i].checksum = SnapshotChecksum(sections[i].data, sections[i].size);
    offset += sections[i].size;
  }
  const uint64_t file_bytes = offset;

  SnapshotHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.endian = kEndianMarker;
  header.epoch = state.epoch;
  header.file_bytes = file_bytes;
  header.section_count = kNumSections;
  header.reserved = 0;
  header.table_checksum =
      SnapshotChecksum(table.data(), table.size() * sizeof(SectionEntry));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("snapshot: cannot write '" + tmp + "'");
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(table.data()),
              table.size() * sizeof(SectionEntry));
    uint64_t written = sizeof(header) + table.size() * sizeof(SectionEntry);
    static const char kZeros[kSectionAlignment] = {};
    for (uint32_t i = 0; i < kNumSections; ++i) {
      if (table[i].offset > written) {
        out.write(kZeros, table[i].offset - written);
        written = table[i].offset;
      }
      if (sections[i].size > 0) {
        out.write(static_cast<const char*>(sections[i].data),
                  static_cast<std::streamsize>(sections[i].size));
      }
      written += sections[i].size;
    }
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("snapshot: short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot: cannot rename '" + tmp + "' to '" +
                           path + "'");
  }

  SnapshotWriteStats stats;
  stats.epoch = state.epoch;
  stats.file_bytes = file_bytes;
  stats.write_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return stats;
}

}  // namespace snapshot
}  // namespace banks
