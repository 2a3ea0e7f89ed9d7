#!/usr/bin/env python3
"""Unit tests for check_coverage.py (stdlib only; wired into CTest).

The coverage gate is itself gated: a line an lcov trace reports with zero
hits must count as an uncovered line, or the gate reads 100% whatever the
tests run.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_coverage  # noqa: E402


class CheckCoverageTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name
        self.floor = os.path.join(self.dir, "floor.txt")
        with open(self.floor, "w") as f:
            f.write("# test floor\n90\n")

    def tearDown(self):
        self._tmp.cleanup()

    def run_gate(self, records):
        trace = os.path.join(self.dir, "trace.lcov")
        with open(trace, "w") as f:
            for source, lines in records:
                f.write(f"SF:{source}\n")
                for lineno, count in lines:
                    f.write(f"DA:{lineno},{count}\n")
                f.write("end_of_record\n")
        return check_coverage.main(
            ["check_coverage.py", trace, "--floor-file", self.floor])

    def test_zero_hit_lines_are_uncovered(self):
        self.assertEqual(self.run_gate(
            [("/r/src/graph/graph_splice.cc", [(1, 5), (2, 0)])]), 1)

    def test_covered_lines_meet_the_floor(self):
        self.assertEqual(self.run_gate(
            [("/r/src/update/refreeze.cc", [(1, 5), (2, 1)])]), 0)

    def test_duplicate_records_keep_the_max(self):
        # A header line hit in one translation unit and not in another
        # counts as covered.
        self.assertEqual(self.run_gate(
            [("/r/src/snapshot/snapshot.h", [(7, 0)]),
             ("/r/src/snapshot/snapshot.h", [(7, 3)])]), 0)

    def test_files_outside_the_gated_dirs_are_ignored(self):
        self.assertEqual(self.run_gate(
            [("/r/src/server/session_pool.cc", [(1, 1)]),
             ("/r/src/core/banks.cc", [(1, 0), (2, 0)])]), 0)

    def test_a_trace_without_gated_files_is_a_usage_error(self):
        self.assertEqual(self.run_gate(
            [("/r/src/core/banks.cc", [(1, 1)])]), 2)


if __name__ == "__main__":
    unittest.main()
