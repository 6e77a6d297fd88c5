"""The benchmark's own tests, run from this suite.

They live in ``perfbench/tests`` with a ``conftest`` of their own, which
would shadow this directory's ``conftest`` (modules here import stubs
from it) if both directories were collected in one session, so they run
in a separate interpreter.  A package change that breaks the benchmark's
tracing hooks or its CLI-equivalence checks fails here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
