#!/usr/bin/env python3
"""banks_lint — repo-invariant linter for concurrency discipline.

The thread-safety annotations (src/util/thread_annotations.h) let the
compiler check lock discipline; this linter checks the invariants the
type system cannot see:

  no-db-in-server
      `engine.db()` is documented as NOT synchronized with the mutation
      API, so code that runs concurrently with writers — everything under
      src/server/ and the concurrency benches — must never call it. Those
      paths read through the immutable LiveState snapshot instead.

  index-mutation-confinement
      Published index objects are immutable after Build: queries read them
      lock-free through shared_ptr snapshots. Inside src/, the mutating
      index surface (Build/AddText/AddTuple/PatchPostings/PatchValue) may
      only be called from src/index/ (construction) and src/update/ (the
      refreeze paths, which mutate private pre-publication copies).

  cache-mutation-confinement
      The epoch-keyed query cache (src/server/query_cache.h) is only
      sound because every write to it happens on the engine's serving and
      refreeze paths, which hold the epoch discipline: src/server/ stores
      and probes, src/update/ purges dead epochs.
      Everything else (the rest of src/, benches, examples) must treat
      the cache as read-only telemetry — a stray StoreAnswers() or
      OnRefreeze() from an unsynchronized path corrupts the exact
      (epoch, pending) keying that makes hits byte-identical to misses.
      Tests are exempt: they drive the mutator surface directly to prove
      the invalidation contract.

  snapshot-io-confinement
      Raw memory-mapped IO (the mmap/munmap/mremap/madvise family) is
      confined to src/snapshot/: the snapshot reader owns the single
      mapping whose lifetime backs every view-mode graph and index
      (arena keep-alive via shared_ptr), and a second mapping site
      would mean a second, unaudited lifetime contract. Everything else
      reaches mapped state through OpenSnapshot.

  socket-confinement
      Raw socket syscalls (socket/bind/listen/accept/connect/send/recv
      and friends) are confined to src/server/net/socket.cc — the one TU
      that decides fd ownership (close-on-destruct) and signal behaviour
      (MSG_NOSIGNAL, EINTR retries) for the serving tier. Everything
      above it — the HTTP layer, the server loop, benches, tests,
      examples — talks TCP through the Socket wrapper, mirroring the
      mmap rule.

  no-raw-new-delete
      src/ owns memory through containers and smart pointers; a raw
      `new`/`delete` expression is either a leak-by-design or a double-
      ownership bug waiting for a concurrent path. `= delete` declarations
      are fine. Escape hatch for the rare justified case:
      a `banks-lint: allow(raw-new)` comment on the same line.

  documented-suppressions
      Every BANKS_NO_THREAD_SAFETY_ANALYSIS must carry an adjacent
      comment mentioning "rationale", there may be at most
      MAX_SUPPRESSIONS sites repo-wide, and none at all under src/server/
      (the hot serving paths must stay fully analyzed).

Zero third-party dependencies; runs as a CTest test and in CI.
Exit status: 0 clean, 1 violations (printed one per line as
path:line: [rule] message).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

MAX_SUPPRESSIONS = 3

CXX_SUFFIXES = {".cc", ".h", ".cpp", ".hpp"}

# Paths (relative, slash-normalized) that run concurrently with writers
# and therefore must not touch the unsynchronized Database accessor.
DB_FORBIDDEN_DIR = "src/server/"
DB_FORBIDDEN_BENCH = re.compile(r"bench/[^/]*(concurrent|session|pool)[^/]*\.cc$")
DB_CALL = re.compile(r"(?:\.|->)db\(\)")

INDEX_MUTATORS = ("Build", "AddText", "AddTuple", "PatchPostings",
                  "PatchValue")
INDEX_MUTATOR_CALL = re.compile(
    r"(?:\.|->)(" + "|".join(INDEX_MUTATORS) + r")\s*\(")
INDEX_MUTATION_ALLOWED = ("src/index/", "src/update/")

CACHE_MUTATORS = ("StoreAnswers", "OnRefreeze")
CACHE_MUTATOR_CALL = re.compile(
    r"(?:\.|->)(" + "|".join(CACHE_MUTATORS) + r")\s*\(")
CACHE_MUTATION_ALLOWED = ("src/server/", "src/update/")

MMAP_FAMILY = ("mmap", "munmap", "mremap", "madvise")
MMAP_CALL = re.compile(r"\b(" + "|".join(MMAP_FAMILY) + r")\s*\(")
SNAPSHOT_IO_ALLOWED = "src/snapshot/"

# The unambiguous syscall names match bare; bind/connect/send/recv/shutdown
# collide with ordinary method names, so only their ::-qualified spellings
# (the repo convention for syscalls) are claimed by the rule.
SOCKET_FAMILY = ("socket", "listen", "accept", "accept4", "setsockopt",
                 "getsockname", "recvfrom", "sendto")
SOCKET_CALL = re.compile(r"\b(" + "|".join(SOCKET_FAMILY) + r")\s*\(")
SOCKET_QUALIFIED = re.compile(r"::(bind|connect|send|recv|shutdown)\s*\(")
SOCKET_IO_ALLOWED = "src/server/net/socket.cc"

RAW_NEW = re.compile(r"\bnew\b\s*(?:\(|[A-Za-z_:<])")
RAW_DELETE = re.compile(r"\bdelete\b(?:\s*\[\s*\])?\s*[A-Za-z_(*]")
ALLOW_RAW = re.compile(r"banks-lint:\s*allow\(raw-new\)")

SUPPRESSION = "BANKS_NO_THREAD_SAFETY_ANALYSIS"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure so reported line numbers stay true. Handles //, /* */, "…"
    with escapes, '…', and is conservative about raw strings (good enough
    for this codebase, which has none)."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | dq | sq
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "dq"
                out.append(" ")
                i += 1
            elif c == "'":
                mode = "sq"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # dq / sq
            quote = '"' if mode == "dq" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                mode = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[str] = []
        self.suppression_sites: list[str] = []

    def report(self, rel: str, lineno: int, rule: str, msg: str) -> None:
        self.violations.append(f"{rel}:{lineno}: [{rule}] {msg}")

    # ------------------------------------------------------------- rules

    def check_db_calls(self, rel: str, code_lines: list[str]) -> None:
        if not (rel.startswith(DB_FORBIDDEN_DIR)
                or DB_FORBIDDEN_BENCH.search(rel)):
            return
        for lineno, line in enumerate(code_lines, 1):
            if DB_CALL.search(line):
                self.report(
                    rel, lineno, "no-db-in-server",
                    "engine.db() is not synchronized with writers; "
                    "concurrent paths must read the LiveState snapshot")

    def check_index_mutations(self, rel: str, code_lines: list[str]) -> None:
        if not rel.startswith("src/"):
            return
        if rel.startswith(INDEX_MUTATION_ALLOWED):
            return
        for lineno, line in enumerate(code_lines, 1):
            m = INDEX_MUTATOR_CALL.search(line)
            if m:
                self.report(
                    rel, lineno, "index-mutation-confinement",
                    f"index mutator {m.group(1)}() outside src/update/ and "
                    "src/index/: published indexes are immutable after "
                    "Build")

    def check_cache_mutations(self, rel: str, code_lines: list[str]) -> None:
        # Scanned everywhere the linter walks except tests/ (which prove
        # the invalidation contract by driving the mutators directly).
        if rel.startswith("tests/"):
            return
        if rel.startswith(CACHE_MUTATION_ALLOWED):
            return
        for lineno, line in enumerate(code_lines, 1):
            m = CACHE_MUTATOR_CALL.search(line)
            if m:
                self.report(
                    rel, lineno, "cache-mutation-confinement",
                    f"query-cache mutator {m.group(1)}() outside "
                    "src/server/ and src/update/: only the serving and "
                    "refreeze paths may write the epoch-keyed cache")

    def check_snapshot_io(self, rel: str, code_lines: list[str]) -> None:
        if rel.startswith(SNAPSHOT_IO_ALLOWED):
            return
        for lineno, line in enumerate(code_lines, 1):
            m = MMAP_CALL.search(line)
            if m:
                self.report(
                    rel, lineno, "snapshot-io-confinement",
                    f"{m.group(1)}() outside src/snapshot/: the snapshot "
                    "reader owns the only mapping; reach mapped state "
                    "through OpenSnapshot")

    def check_socket_confinement(self, rel: str,
                                 code_lines: list[str]) -> None:
        if rel == SOCKET_IO_ALLOWED:
            return
        for lineno, line in enumerate(code_lines, 1):
            m = SOCKET_CALL.search(line) or SOCKET_QUALIFIED.search(line)
            if m:
                self.report(
                    rel, lineno, "socket-confinement",
                    f"{m.group(1)}() outside src/server/net/socket.cc: "
                    "fd ownership and signal behaviour are decided in one "
                    "TU; reach the network through the Socket wrapper")

    def check_raw_new_delete(self, rel: str, code_lines: list[str],
                             raw_lines: list[str]) -> None:
        if not rel.startswith("src/"):
            return
        for lineno, line in enumerate(code_lines, 1):
            raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            if ALLOW_RAW.search(raw):
                continue
            if RAW_NEW.search(line):
                self.report(
                    rel, lineno, "no-raw-new-delete",
                    "raw new in src/ (own memory via containers / "
                    "make_unique / make_shared, or annotate the line "
                    "with // banks-lint: allow(raw-new) + rationale)")
            # `= delete` declarations end in ';' or ',' right after the
            # keyword; the regex requires an operand so they never match.
            if RAW_DELETE.search(line):
                self.report(
                    rel, lineno, "no-raw-new-delete",
                    "raw delete in src/ (ownership belongs in a smart "
                    "pointer or container)")

    def check_suppressions(self, rel: str, code_lines: list[str],
                           raw_lines: list[str]) -> None:
        for lineno, line in enumerate(code_lines, 1):
            if SUPPRESSION not in line:
                continue
            site = f"{rel}:{lineno}"
            self.suppression_sites.append(site)
            if rel.startswith("src/server/"):
                self.report(
                    rel, lineno, "documented-suppressions",
                    f"{SUPPRESSION} is banned under src/server/: the "
                    "serving hot paths must stay fully analyzed")
            # Rationale must sit on the same line or one of the 3 lines
            # above (comment text survives only in the raw source).
            window = raw_lines[max(0, lineno - 4):lineno]
            if not any("rationale" in w.lower() for w in window):
                self.report(
                    rel, lineno, "documented-suppressions",
                    f"{SUPPRESSION} without an adjacent comment "
                    "containing 'Rationale:' explaining why the analysis "
                    "cannot express this locking")

    # ------------------------------------------------------------ driver

    def lint_file(self, path: Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        if rel.startswith("src/util/thread_annotations.h"):
            return  # defines the macros; exempt from the suppression scan
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            self.report(rel, 0, "io", f"unreadable: {e}")
            return
        raw_lines = text.splitlines()
        code_lines = strip_comments_and_strings(text).splitlines()
        self.check_db_calls(rel, code_lines)
        self.check_index_mutations(rel, code_lines)
        self.check_cache_mutations(rel, code_lines)
        self.check_snapshot_io(rel, code_lines)
        self.check_socket_confinement(rel, code_lines)
        self.check_raw_new_delete(rel, code_lines, raw_lines)
        self.check_suppressions(rel, code_lines, raw_lines)

    def run(self) -> int:
        scan_dirs = ("src", "bench", "examples", "tests")
        for d in scan_dirs:
            base = self.root / d
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix in CXX_SUFFIXES and path.is_file():
                    self.lint_file(path)
        if len(self.suppression_sites) > MAX_SUPPRESSIONS:
            sites = ", ".join(self.suppression_sites)
            self.violations.append(
                f"(repo): [documented-suppressions] "
                f"{len(self.suppression_sites)} {SUPPRESSION} sites "
                f"(max {MAX_SUPPRESSIONS}): {sites}")
        for v in self.violations:
            print(v)
        if self.violations:
            print(f"banks_lint: {len(self.violations)} violation(s)",
                  file=sys.stderr)
            return 1
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).parent.parent,
                        help="repository root (default: the repo this "
                             "script lives in)")
    args = parser.parse_args()
    return Linter(args.root.resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
