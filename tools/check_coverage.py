#!/usr/bin/env python3
"""Gate line coverage of the mutation-facing subsystems.

Usage:
    check_coverage.py <coverage.lcov> [--floor-file tools/coverage_floor.txt]

Reads an lcov trace (llvm-cov export -format=lcov in CI; anything
emitting SF:/DA: records works) and computes aggregate line coverage
over src/update/, src/server/, src/snapshot/ and src/graph/ — the
subsystems where a silently untested branch means a stale cache entry, a
lost mutation, a corrupt-file code path that crashes instead of returning
a Status, or a stage-B branch that emits a wrong graph.
Fails (exit 1) if the percentage drops below the
floor checked into tools/coverage_floor.txt, so coverage can only be
ratcheted deliberately.

The floor file holds one number (percent); '#' comments are ignored.
Exit code: 0 at/above floor, 1 below, 2 usage/parse error.
"""

import os
import sys

#: Subsystems the floor covers, matched as path substrings of SF records.
GATED_DIRS = ("src/update/", "src/server/", "src/snapshot/", "src/graph/")


def parse_lcov(path):
    """Returns {source_file: {line: max_hit_count}} for gated files."""
    per_file = {}
    current = None
    try:
        with open(path) as f:
            for raw in f:
                line = raw.strip()
                if line.startswith("SF:"):
                    source = line[3:].replace(os.sep, "/")
                    if any(d in source for d in GATED_DIRS):
                        current = per_file.setdefault(source, {})
                    else:
                        current = None
                elif line == "end_of_record":
                    current = None
                elif current is not None and line.startswith("DA:"):
                    fields = line[3:].split(",")
                    lineno = int(fields[0])
                    count = int(float(fields[1]))
                    # Duplicate DA records (template instantiations) keep
                    # the max: a line exercised anywhere counts as covered.
                    # A zero count is recorded too: it is an uncovered line.
                    current[lineno] = max(count, current.get(lineno, 0))
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    except (ValueError, IndexError) as e:
        print(f"error: malformed lcov record in {path}: {e}", file=sys.stderr)
        sys.exit(2)
    return per_file


def read_floor(path):
    try:
        with open(path) as f:
            for raw in f:
                line = raw.split("#", 1)[0].strip()
                if line:
                    return float(line)
    except (OSError, ValueError) as e:
        print(f"error: cannot read floor from {path}: {e}", file=sys.stderr)
        sys.exit(2)
    print(f"error: {path} holds no floor value", file=sys.stderr)
    sys.exit(2)


def main(argv):
    args = []
    floor_file = None
    rest = argv[1:]
    while rest:
        a = rest.pop(0)
        if a == "--floor-file":
            if not rest:
                print("error: --floor-file needs a value", file=sys.stderr)
                return 2
            floor_file = rest.pop(0)
        else:
            args.append(a)
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    if floor_file is None:
        floor_file = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "coverage_floor.txt")

    per_file = parse_lcov(args[0])
    if not per_file:
        print(f"error: {args[0]} covers no file under "
              f"{' or '.join(GATED_DIRS)} — wrong trace or wrong build",
              file=sys.stderr)
        return 2

    floor = read_floor(floor_file)
    total_lines = 0
    total_hit = 0
    print(f"line coverage over {' + '.join(GATED_DIRS)}:")
    for source in sorted(per_file):
        lines = per_file[source]
        hit = sum(1 for c in lines.values() if c > 0)
        total_lines += len(lines)
        total_hit += hit
        pct = 100.0 * hit / len(lines) if lines else 100.0
        print(f"  {pct:6.1f}%  {hit:5d}/{len(lines):<5d}  {source}")
    aggregate = 100.0 * total_hit / total_lines if total_lines else 0.0
    print(f"aggregate: {aggregate:.1f}% ({total_hit}/{total_lines} lines), "
          f"floor {floor:.1f}%")
    if aggregate < floor:
        print(f"FAIL: coverage {aggregate:.1f}% is below the "
              f"{floor:.1f}% floor ({floor_file})", file=sys.stderr)
        return 1
    print("coverage floor met")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
