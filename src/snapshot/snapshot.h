// Snapshot persistence: save one LiveState to a single arena file and
// reopen it with an mmap instead of a rebuild.
//
// The paper's engine (§2.2) rebuilds the whole data graph from the
// database on every start; WriteSnapshot captures one epoch's derived
// state — CSR offsets/edges (both directions), node weights, the
// Rid<->NodeId map, and the inverted/metadata/numeric index contents — so
// a process restarts in O(milliseconds): OpenSnapshot maps the file
// read-only and builds a LiveState whose FrozenGraph and index readers are
// spans into the mapping (zero parse, zero per-element copies on the hot
// arrays). Replicas sharing a file also share its page cache.
//
// Lifetime contract: the mapping is owned by a shared arena handle stored
// inside every view-backed structure of the returned LiveState, so the
// file stays mapped as long as *any* session holds the epoch — dropping
// the OpenedSnapshot or the engine's current-state pointer never unmaps
// under a reader.
//
// Rotation contract: WriteSnapshot writes `<path>.tmp` and renames it over
// `<path>` (atomic on POSIX), so a crash mid-write never clobbers the
// previous good snapshot and concurrent openers see either the old or the
// new file, never a torn one.
//
// This header is the only sanctioned way to touch snapshot files;
// tools/banks_lint.py (snapshot-io-confinement) keeps raw mmap/munmap
// calls inside src/snapshot/.
#ifndef BANKS_SNAPSHOT_SNAPSHOT_H_
#define BANKS_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "storage/database.h"
#include "update/live_state.h"
#include "util/status.h"

namespace banks {
namespace snapshot {

/// What WriteSnapshot did (RefreezeStats absorbs these).
struct SnapshotWriteStats {
  uint64_t epoch = 0;
  uint64_t file_bytes = 0;
  double write_ms = 0.0;
};

struct SnapshotOpenOptions {
  /// Verify every section checksum before trusting the mapping. Costs one
  /// sequential pass over the file; disable only for files a checksummed
  /// transport already validated.
  bool verify_checksums = true;
  /// Expected DatabaseFingerprint of the paired database; 0 skips the
  /// check. A snapshot opened against a different database would serve
  /// answers whose rids point at the wrong tuples.
  uint64_t expect_db_fingerprint = 0;
};

/// An opened, mapped snapshot. `state` is a complete epoch: overlays null,
/// epoch as written, ready to publish as an engine's read state.
struct OpenedSnapshot {
  LiveStateSnapshot state;
  uint64_t epoch = 0;
  uint64_t file_bytes = 0;
  /// Bytes of hot arrays served directly from the mapping.
  uint64_t mapped_bytes = 0;
  /// Bytes copied into owned memory (the rid->node map, metadata
  /// records) — bookkeeping the reader must rebuild anyway. The CSR and
  /// inverted-index arrays never contribute here.
  uint64_t copied_bytes = 0;
  /// Fingerprint recorded by the writer (0 if none).
  uint64_t db_fingerprint = 0;
};

/// Stable identity of a database for snapshot pairing: table names, ids,
/// row counts and live-row counts (not contents — the snapshot carries
/// derived state, and a content hash would cost a full scan per refreeze).
uint64_t DatabaseFingerprint(const Database& db);

/// Serialises `state` to `path` (via `<path>.tmp` + atomic rename).
/// `state` must be a frozen epoch: no delta overlays, no pending
/// mutations — refreeze first (FailedPrecondition otherwise).
/// `db_fingerprint` is stored for the open-time pairing check (0 = none).
Result<SnapshotWriteStats> WriteSnapshot(const LiveState& state,
                                         const std::string& path,
                                         uint64_t db_fingerprint = 0);

/// Maps `path` read-only and reconstructs its LiveState. Corrupt or
/// truncated files, wrong magic/version/endianness, inconsistent section
/// tables, and CSR arrays a search could not run over (edge targets out of
/// range, weights Dijkstra cannot use, stored invariants that disagree with
/// the arrays) all fail with a clean Status — never undefined behaviour.
Result<OpenedSnapshot> OpenSnapshot(const std::string& path,
                                    const SnapshotOpenOptions& options = {});

}  // namespace snapshot
}  // namespace banks

#endif  // BANKS_SNAPSHOT_SNAPSHOT_H_
