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
    # fused masses behind the tables are exact sums, rounded once.
    argv = [sys.executable, TOOL, "--workload", "wide_lattice", "--seeds", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert out == ("runs 29\n"
                   "sha256 fedc3a8b5f1b1361e0f000a75b93b91b4c40c5c3a6f2df59d43ac0584bec46df\n")
