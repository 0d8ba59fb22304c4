"""What ``import repro`` pulls in — checked in a fresh interpreter."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import json, sys
import repro
import repro.parallel.blas as blas
print(json.dumps({
    "scipy_stats": sorted(m for m in sys.modules if m.startswith("scipy.stats")),
    "blas_loaded": len(blas._loaded),
}))
"""


def test_import_repro_skips_scipy_stats_and_blas_discovery():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    # scipy.stats costs ~0.5 s of import; the p-values use scipy.special.
    assert loaded["scipy_stats"] == []
    # BLAS libraries are looked up on the first mining run, not at import.
    assert loaded["blas_loaded"] == 0
