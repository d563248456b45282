"""The names perfbench's tracer wraps and reads must exist in the library.

The tracer skips a missing name silently, so a refactor that renames one
would zero a benchmark metric without any error; this test fails instead.
"""

import sys
from pathlib import Path

import pytest

from goodfilt import characters
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


# The benchmark's cold-start check reads these through getattr with a
# default, so a renamed memo would pass it; name them here instead.
COLD_MEMOS = (
    "_length",
    "_leq",
    "_ideal",
    "_locate",
    "_dominant",
    "_dominant_levels",
)


def test_a_fresh_group_is_cold():
    group = AffineWeylGroup(build_root_system("B", 2))
    for name in COLD_MEMOS:
        memo = getattr(group, name)  # AttributeError names a renamed memo
        assert len(memo) == 0, name
    assert set(tracer.AFFINE_MEMOS) <= set(COLD_MEMOS)
    # the identity, and with it the first id, is created on first use
    assert group.identity == 0
    assert len(group._length) == len(group._dominant) == 1
    assert group.is_dominant(group.identity) is False


def test_tensor_queries_reach_freudenthal_through_the_module_name(monkeypatch):
    # the tracer wraps characters.dominant_multiplicities as a module
    # attribute; a tensor path that reached Freudenthal another way would
    # zero the characters.dominant_multiplicities metrics without an error
    for f in vars(characters).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    calls = []
    real = characters.dominant_multiplicities

    def counted(rs, lam):
        calls.append(lam)
        return real(rs, lam)

    monkeypatch.setattr(characters, "dominant_multiplicities", counted)
    g2 = build_root_system("G", 2)
    assert characters.tensor_nabla_multiplicities(g2, (0, 1), (1, 0)) == {
        (1, 1): 1, (2, 0): 1, (1, 0): 1,
    }
    assert calls == [(1, 0)]  # the smaller, 7-dimensional factor
