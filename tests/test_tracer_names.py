"""The names perfbench's tracer wraps and reads must exist in the library.

The tracer skips a missing name silently, so a refactor that renames one
would zero a benchmark metric without any error; this test fails instead.
"""

import sys
from pathlib import Path

import pytest

from goodfilt.affine import AffineWeylGroup
from goodfilt.roots import build_root_system

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _ in tracer.SPANNED + tracer.COUNTED]
)
def test_traced_name_exists(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_affine_memos_exist_on_a_fresh_group():
    group = AffineWeylGroup(build_root_system("A", 2))
    missing = [m for m in tracer.AFFINE_MEMOS if not hasattr(group, m)]
    assert not missing
