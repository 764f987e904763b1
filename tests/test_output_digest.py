"""Smoke test of tools/output_digest.py, the same-bytes check between trees."""

import os
import re
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "output_digest.py")


def test_output_digest_is_repeatable():
    argv = [sys.executable, TOOL, "--workload", "cli_golden", "--seeds", "1"]
    first, second = (subprocess.run(argv, capture_output=True, text=True, check=True).stdout
                     for _ in range(2))
    # 12 requests, the 10 fuse requests also at --precision 6 as JSON and as a table
    assert re.fullmatch(r"runs 32\nsha256 [0-9a-f]{64}\n", first)
    assert first == second


def test_output_digest_lists_each_run():
    argv = [sys.executable, TOOL, "--workload", "cli_golden", "--seeds", "1"]
    total = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    listed = subprocess.run(argv + ["--runs"], capture_output=True, text=True, check=True).stdout
    head, runs = listed.splitlines(keepends=True)[:2], listed.splitlines()[2:]
    assert "".join(head) == total
    assert len(runs) == 32
    assert all(re.fullmatch(r"cli_golden 1 \S+ [0-9a-f]{64}", line) for line in runs)
    assert len({line.split()[2] for line in runs}) == 32


def test_imprecise_outputs_are_pinned():
    # Every imprecise and triple request of the benchmark pools on the default
    # seeds, at full precision and at --precision 6. The set arithmetic must
    # keep these bytes; a change to the generator in perfbench/workloads.py
    # must re-pin the two values. The algebraic triple sums are exact,
    # rounded once.
    argv = [sys.executable, TOOL, "--workload", "imprecise_triple"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert out == ("runs 270\n"
                   "sha256 83ae1473e808be1a422b9659e3c9ea8d6a471a0ef90bf87356b5d6785bd0694f\n")


def test_wide_lattice_outputs_are_pinned():
    # Every listing and pignistic table of the wide_lattice pool on seed 1:
    # the byte-column renderer must keep these bytes; a change to the
    # generator in perfbench/workloads.py must re-pin the two values. The
    # fused masses behind the tables, and each pignistic value, are exact
    # sums, rounded once.
    argv = [sys.executable, TOOL, "--workload", "wide_lattice", "--seeds", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert out == ("runs 29\n"
                   "sha256 9129fcd717dffd642e891f4d40ee85d2b638eb5dce99b65db55f62ae0321f9c8\n")


def test_precise_fold_outputs_are_pinned():
    # Every request of the conj_many_sources pool on seed 1: the precise
    # rules' exact folds, each sum rounded once, must keep these bytes; a
    # change to the generator in perfbench/workloads.py must re-pin the two
    # values.
    argv = [sys.executable, TOOL, "--workload", "conj_many_sources", "--seeds", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert out == ("runs 432\n"
                   "sha256 c977bf2dee770ca07b1bf47e05ed45f8f9d4eb0fcce8f27b5f7ded8cfae35826\n")


def test_cli_golden_outputs_are_pinned():
    # Every request of the cli_golden pool on seed 1, the bundled scenarios'
    # fuse requests also at --precision 6 as JSON and as a table: the goldens
    # pin only the default precision, so these bytes gate the report and
    # listing writers at a fixed precision too. A change to the generator in
    # perfbench/workloads.py must re-pin the two values.
    argv = [sys.executable, TOOL, "--workload", "cli_golden", "--seeds", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert out == ("runs 32\n"
                   "sha256 83a66d1520298a7ac3d731626372665cf0ff4adf474c3d795a2b38d279ffaff5\n")
