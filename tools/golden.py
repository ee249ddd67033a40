"""Regenerate tests/golden/digests.json from the golden configs.

    python tools/golden.py

Runs tests/golden/run.py in a subprocess with one BLAS thread and records
the sha256 of every non-manifest output, with the numpy version and the
platform they hold for. Regenerate only when a change moves output bits on
purpose, and name the outputs that moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "golden" / "digests.json"
# poly's Gram matrix takes other bits with another BLAS thread count
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def platform_name() -> str:
    return f"{sys.platform}-{platform.machine()}"


def run_digests(workdir: str) -> dict[str, str]:
    """The sha256 of each output of the golden runs made in workdir, by "<config name>/<file>"."""
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "golden" / "run.py"), workdir],
                          env={**os.environ, **ONE_BLAS_THREAD}, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"tests/golden/run.py exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        digests = run_digests(workdir)
    record = {"numpy_version": np.__version__, "platform": platform_name(), "digests": digests}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
