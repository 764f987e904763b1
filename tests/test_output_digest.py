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
