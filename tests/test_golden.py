"""Every command's outputs on the golden inputs hash as recorded in tests/golden/digests.json.

The byte-determinism contract holds for one numpy version and platform, so
the test fails, naming the recorded ones, under any other. The commands run
in a subprocess with one BLAS thread, because poly's bits depend on the BLAS
thread count. A change that moves bits on purpose regenerates the digests
with `python tools/golden.py`.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location("golden", Path(__file__).parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_every_output_hashes_as_recorded(tmp_path):
    recorded = json.loads(golden.DIGESTS.read_text(encoding="utf-8"))
    here = (np.__version__, golden.platform_name())
    if here != (recorded["numpy_version"], recorded["platform"]):
        pytest.fail(f"the golden digests were recorded under numpy {recorded['numpy_version']} on"
                    f" {recorded['platform']}, not numpy {here[0]} on {here[1]}; run python tools/golden.py")
    digests = golden.run_digests(str(tmp_path))
    expected = recorded["digests"]
    moved = sorted(name for name in expected.keys() | digests.keys() if expected.get(name) != digests.get(name))
    assert not moved, f"outputs that differ from tests/golden/digests.json: {', '.join(moved)}"
