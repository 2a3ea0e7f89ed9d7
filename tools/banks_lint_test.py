#!/usr/bin/env python3
"""Unit tests for banks_lint.py (stdlib only; wired into CTest).

Each rule gets a positive case (violation caught) and a negative case
(clean/escaped code passes), exercised against synthetic repo trees in a
temp directory — the linter's behaviour is part of the test suite just
like the bench regression gate's.
"""

import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import banks_lint  # noqa: E402


class LintFixture(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, text):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def lint(self):
        linter = banks_lint.Linter(self.root)
        linter.run()
        return linter.violations


class StripCommentsTest(LintFixture):
    def test_strips_comments_and_strings_preserving_lines(self):
        text = 'int x; // new Foo\n/* delete p; */ int y;\nauto s = "new Z";\n'
        stripped = banks_lint.strip_comments_and_strings(text)
        self.assertEqual(len(stripped.splitlines()), 3)
        self.assertNotIn("new", stripped)
        self.assertNotIn("delete", stripped)
        self.assertIn("int x;", stripped)
        self.assertIn("int y;", stripped)


class DbInServerTest(LintFixture):
    def test_db_call_in_server_flagged(self):
        self.write("src/server/pool.cc", "void F() { engine.db(); }\n")
        violations = self.lint()
        self.assertEqual(len(violations), 1)
        self.assertIn("no-db-in-server", violations[0])

    def test_db_call_in_concurrency_bench_flagged(self):
        self.write("bench/bench_concurrent_sessions.cc",
                   "void F() { e->db(); }\n")
        self.assertIn("no-db-in-server", self.lint()[0])

    def test_db_call_elsewhere_ok(self):
        self.write("src/browse/browser.cc", "void F() { engine.db(); }\n")
        self.write("bench/bench_scaling.cc", "void F() { engine.db(); }\n")
        self.assertEqual(self.lint(), [])

    def test_db_mention_in_comment_ok(self):
        self.write("src/server/pool.cc", "// engine.db() is forbidden here\n")
        self.assertEqual(self.lint(), [])


class IndexMutationTest(LintFixture):
    def test_mutator_outside_update_flagged(self):
        self.write("src/core/engine.cc", "void F() { index.Build(db); }\n")
        violations = self.lint()
        self.assertEqual(len(violations), 1)
        self.assertIn("index-mutation-confinement", violations[0])

    def test_patch_call_flagged(self):
        self.write("src/server/x.cc",
                   "void F() { idx->PatchPostings(k, a, d); }\n")
        self.assertTrue(any("index-mutation-confinement" in v
                            for v in self.lint()))

    def test_mutator_in_update_and_index_ok(self):
        self.write("src/update/refreeze.cc", "void F() { index->Build(db); }\n")
        self.write("src/index/builder.cc", "void F() { idx.AddText(t, r); }\n")
        self.assertEqual(self.lint(), [])

    def test_mutator_in_tests_and_bench_ok(self):
        self.write("tests/index_test.cc", "void F() { idx.Build(db); }\n")
        self.write("bench/bench_micro.cc", "void F() { idx.Build(db); }\n")
        self.assertEqual(self.lint(), [])


class CacheMutationTest(LintFixture):
    def test_mutator_outside_server_update_flagged(self):
        self.write("src/core/engine.cc",
                   "void F() { cache->StoreAnswers(key, answers); }\n")
        violations = self.lint()
        self.assertEqual(len(violations), 1)
        self.assertIn("cache-mutation-confinement", violations[0])

    def test_mutator_in_bench_and_examples_flagged(self):
        self.write("bench/bench_cache.cc",
                   "void F() { cache.OnRefreeze(epoch); }\n")
        self.write("examples/demo.cc",
                   "void F() { cache->StoreAnswers(key, e, p, value); }\n")
        violations = self.lint()
        self.assertEqual(len(violations), 2)
        self.assertTrue(all("cache-mutation-confinement" in v
                            for v in violations))

    def test_mutator_in_server_and_update_ok(self):
        self.write("src/server/query_cache.cc",
                   "void F() { self->StoreAnswers(key, e, p, value); }\n")
        self.write("src/update/refreeze.cc",
                   "void F() { cache_->OnRefreeze(epoch); }\n")
        self.assertEqual(self.lint(), [])

    def test_mutator_in_tests_ok(self):
        self.write("tests/query_cache_test.cc",
                   "void F() { cache.StoreAnswers(key, e, p, value); }\n")
        self.assertEqual(self.lint(), [])

    def test_read_through_surface_ok(self):
        self.write("src/core/engine.cc",
                   "void F() { cache->FindAnswers(key, e, p);\n"
                   "           cache->MakeAnswerFill(key, e, p, m, d); }\n")
        self.assertEqual(self.lint(), [])

    def test_mutator_mention_in_comment_ok(self):
        self.write("src/core/engine.cc",
                   "// cache->OnRefreeze(epoch) happens in src/update/\n")
        self.assertEqual(self.lint(), [])


class SnapshotIoTest(LintFixture):
    def test_mmap_outside_snapshot_flagged(self):
        self.write("src/core/engine.cc",
                   "void F() { void* p = mmap(nullptr, n, PROT_READ, "
                   "MAP_PRIVATE, fd, 0); }\n")
        violations = self.lint()
        self.assertEqual(len(violations), 1)
        self.assertIn("snapshot-io-confinement", violations[0])

    def test_whole_family_flagged_everywhere_walked(self):
        self.write("src/index/reader.cc", "void F() { munmap(p, n); }\n")
        self.write("bench/bench_io.cc", "void F() { mremap(p, n, m, 0); }\n")
        self.write("examples/demo.cc",
                   "void F() { madvise(p, n, MADV_WILLNEED); }\n")
        self.write("tests/io_test.cc", "void F() { mmap(0, n, 0, 0, fd, 0); }\n")
        violations = self.lint()
        self.assertEqual(len(violations), 4)
        self.assertTrue(all("snapshot-io-confinement" in v
                            for v in violations))

    def test_mmap_in_snapshot_dir_ok(self):
        self.write("src/snapshot/snapshot_reader.cc",
                   "void F() { void* p = mmap(nullptr, n, PROT_READ, "
                   "MAP_PRIVATE, fd, 0); munmap(p, n); }\n")
        self.assertEqual(self.lint(), [])

    def test_mention_in_comment_and_identifier_ok(self):
        self.write("src/core/engine.cc",
                   "// mmap(2) lives in src/snapshot/ only\n"
                   "void MappedFile(int unmmapped);\n"
                   "bool use_mmap_backing = true;\n")
        self.assertEqual(self.lint(), [])


class SocketConfinementTest(LintFixture):
    def test_qualified_syscall_outside_wrapper_flagged(self):
        self.write("src/server/net/http.cc",
                   "void F(int fd) { ::connect(fd, addr, len); }\n")
        violations = self.lint()
        self.assertEqual(len(violations), 1)
        self.assertIn("socket-confinement", violations[0])

    def test_bare_family_flagged_everywhere_walked(self):
        self.write("src/core/engine.cc",
                   "void F() { int fd = socket(AF_INET, SOCK_STREAM, 0); }\n")
        self.write("bench/bench_http.cc",
                   "void F(int fd) { accept(fd, nullptr, nullptr); }\n")
        self.write("examples/demo.cc",
                   "void F(int fd) { sendto(fd, b, n, 0, a, l); }\n")
        self.write("tests/net_test.cc",
                   "void F(int fd) { setsockopt(fd, SOL_SOCKET, o, v, l); }\n")
        violations = self.lint()
        self.assertEqual(len(violations), 4)
        self.assertTrue(all("socket-confinement" in v for v in violations))

    def test_syscalls_in_socket_cc_ok(self):
        self.write("src/server/net/socket.cc",
                   "void F() { int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n"
                   "           ::bind(fd, addr, len); ::listen(fd, 128);\n"
                   "           ::shutdown(fd, SHUT_RDWR); }\n")
        self.assertEqual(self.lint(), [])

    def test_wrapper_methods_and_comments_ok(self):
        self.write("src/server/net/http_server.cc",
                   "// accept(2) and listen(2) live in socket.cc only\n"
                   "void F() { auto conn = listener_.Accept();\n"
                   "           conn.value().ShutdownBoth();\n"
                   "           long n = sock.Recv(buf, len);\n"
                   "           sock.SendAll(data); }\n")
        self.write("tests/http_test.cc",
                   "void F() { auto c = Socket::ConnectLoopback(port); }\n")
        self.assertEqual(self.lint(), [])


class RawNewDeleteTest(LintFixture):
    def test_raw_new_flagged(self):
        self.write("src/datagen/x.cc", "auto* p = new std::vector<int>{1};\n")
        self.assertIn("no-raw-new-delete", self.lint()[0])

    def test_raw_delete_flagged(self):
        self.write("src/datagen/x.cc", "void F(int* p) { delete p; }\n")
        self.assertIn("no-raw-new-delete", self.lint()[0])

    def test_deleted_function_ok(self):
        self.write("src/core/x.h",
                   "struct S {\n"
                   "  S(const S&) = delete;\n"
                   "  S& operator=(const S&) = delete;\n"
                   "};\n")
        self.assertEqual(self.lint(), [])

    def test_allow_escape_hatch(self):
        self.write("src/core/x.cc",
                   "auto* p = new Arena;  "
                   "// banks-lint: allow(raw-new) rationale: arena-owned\n")
        self.assertEqual(self.lint(), [])

    def test_new_outside_src_ok(self):
        self.write("tests/x_test.cc", "auto* p = new int(3);\n")
        self.assertEqual(self.lint(), [])


class SuppressionTest(LintFixture):
    def test_suppression_without_rationale_flagged(self):
        self.write("src/core/x.cc",
                   "void F() BANKS_NO_THREAD_SAFETY_ANALYSIS {}\n")
        self.assertTrue(any("documented-suppressions" in v
                            for v in self.lint()))

    def test_suppression_with_rationale_ok(self):
        self.write("src/core/x.cc",
                   "// Rationale: two-mutex protocol the analysis cannot\n"
                   "// express; TSan covers it.\n"
                   "void F() BANKS_NO_THREAD_SAFETY_ANALYSIS {}\n")
        self.assertEqual(self.lint(), [])

    def test_suppression_in_server_always_flagged(self):
        self.write("src/server/x.cc",
                   "// Rationale: none is good enough here.\n"
                   "void F() BANKS_NO_THREAD_SAFETY_ANALYSIS {}\n")
        self.assertTrue(any("banned under src/server/" in v
                            for v in self.lint()))

    def test_too_many_suppressions_flagged(self):
        body = ("// Rationale: test.\n"
                "void F() BANKS_NO_THREAD_SAFETY_ANALYSIS {}\n")
        for i in range(banks_lint.MAX_SUPPRESSIONS + 1):
            self.write(f"src/core/x{i}.cc", body)
        self.assertTrue(any(f"max {banks_lint.MAX_SUPPRESSIONS}" in v
                            for v in self.lint()))

    def test_max_suppressions_exactly_ok(self):
        body = ("// Rationale: test.\n"
                "void F() BANKS_NO_THREAD_SAFETY_ANALYSIS {}\n")
        for i in range(banks_lint.MAX_SUPPRESSIONS):
            self.write(f"src/core/x{i}.cc", body)
        self.assertEqual(self.lint(), [])


if __name__ == "__main__":
    unittest.main()
