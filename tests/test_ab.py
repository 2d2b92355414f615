"""Smoke test of ``tools/ab.py``, the in-process A/B timer of two trees.

Every A/B comparison goes through its ``make_op`` texts (``str`` of the
stripped complex, ``dump``, ``repr`` of the log and the round count), which
no other test calls.  Comparing this tree with itself on two inputs of each
workload must read every text and find them equal.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_ab_compares_this_tree_with_itself():
    cmd = [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT)]
    for workload in ("messy", "sums", "rcf"):
        cmd += ["--workload", workload]
    cmd += ["--passes", "1", "--size", "2"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["messy", "sums", "rcf"]
    assert all("new/old" in line for line in lines)
