"""A fresh process loads only the layers its calls use.

Run in a new interpreter without ``site`` (``-S``), so that no module a
site hook preloads can hide an import made by the package.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import goodfilt.characters, goodfilt.extmult, goodfilt.roots
loaded = [m for m in ("dataclasses", "fractions", "goodfilt.affine", "goodfilt.klpoly")
          if m in sys.modules]
assert not loaded, f"loaded before first use: {loaded}"
ws = goodfilt.extmult.make_workspace("A", 2)
from goodfilt import KLTable, get_group
assert ws.group is get_group("a", 2) and type(ws.table) is KLTable
assert ws.rs is goodfilt.roots.build_root_system("A", 2)
"""


def test_tensor_layers_load_no_affine_or_kl_code():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
