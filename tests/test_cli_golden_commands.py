"""Golden CLI output of the commands that ``test_cli_golden.py`` does not
cover: the exact stdout, stderr and exit code of ``locate``, ``kl`` and
``extmult`` with ``--cache`` (a saving run, then a loading one), ``tensor``
and ``extmult`` as TSV, ``check-identity``, a cache refused on its second
line, and an unusable ``--cache`` path.  Each saved cache is pinned by its
SHA-256.
"""

import hashlib
import io

import pytest

from goodfilt.cli import main

NOTE = (
    "advisory: note: results assume the characteristic-p irreducible character "
    "formula for all p-regular weights\n"
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv.split() if isinstance(argv, str) else argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


GOLDEN = {
    "locate-regular": (
        "locate --series A --rank 1 --p 5 --weight 8",
        0,
        '{"antidominant": "-2", "length": 2, "regular": true, "word": [1, 0]}\n',
        "",
    ),
    "locate-singular": (
        "locate --series A --rank 1 --p 5 --weight 4",
        3,
        '{"coroot": "1", "regular": false, "vanishing_pairing": 5, "weight": "4"}\n',
        "",
    ),
    "locate-tsv": (
        "locate --series A --rank 2 --p 5 --weight 3,7 --format tsv",
        0,
        "antidominant\t-3,-2\nlength\t6\nregular\ttrue\nword\t[2, 1, 0, 2, 0, 1]\n",
        "",
    ),
    "tensor-tsv": (
        "tensor --series A --rank 2 --weights 1,0 0,1 1,1 --format tsv",
        0,
        "omega\tmultiplicity\n0,0\t1\n0,3\t1\n1,1\t3\n2,2\t1\n3,0\t1\n",
        "",
    ),
    "check-identity": (
        "check-identity --series A --rank 1 --p 5 --max-pairing 20",
        0,
        '{"cases": 8, "failures": [], "message": "all 8 cases pass", "tau_checks": 52}\n',
        "",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_command_output_is_byte_identical(name):
    argv, code, stdout, stderr = GOLDEN[name]
    assert run(argv) == (code, stdout, stderr)


def test_kl_cache_saves_then_loads(tmp_path):
    cache = tmp_path / "kl.cache"
    argv = f"kl --series A --rank 2 --x 1 --y 1,0,1 --cache {cache}"
    stdout = '{"p_of_q": [1], "x": [1], "y": [0, 1, 0]}\n'
    saved = f"cache: saved 4 entries to {cache}\n"
    assert run(argv) == (0, stdout, saved)
    assert run(argv) == (0, stdout, f"cache: loaded 4 entries from {cache}\n" + saved)
    assert sha256(cache) == "ea27837fa5b456c0f76b815ca33f4558e45997cb372679350168b0d9f244169e"


def test_extmult_tsv_with_omegas_saves_then_loads(tmp_path):
    cache = tmp_path / "em.cache"
    argv = (
        "extmult --series A --rank 2 --p 7 --variant red_red --lam 9,5 --mu 4,9 --n 2 "
        f"--format tsv --omega 3,3 --omega 2,2 --omega 0,3 --cache {cache}"
    )
    stdout = "omega\tmultiplicity\n0,3\t2\n2,2\t1\n"
    saved = f"cache: saved 82 entries to {cache}\n"
    assert run(argv) == (0, stdout, saved + NOTE)
    assert run(argv) == (0, stdout, f"cache: loaded 82 entries from {cache}\n" + saved + NOTE)
    assert sha256(cache) == "eeb75729659b5398f6bd0d48ade75a9cec29d721c320709e9e510621c64d89eb"


def test_cache_refused_on_its_second_line(tmp_path):
    cache = tmp_path / "bad.cache"
    cache.write_text(
        '{"format": "kltable", "version": 1, "series": "A", "rank": 1}\n'
        '{"x": [], "y": [1], "p_of_q": [2]}\n'
    )
    before = cache.read_bytes()
    assert run(f"kl --series A --rank 1 --x e --y 1,0 --cache {cache}") == (
        2,
        "",
        f"error: {cache}:2: record violates KL invariants: constant term 2 != 1 "
        "(x=[], y=[1], p=[2])\n",
    )
    assert cache.read_bytes() == before


def test_unusable_cache_path_exits_2_with_empty_stdout(tmp_path):
    # the message names a temporary file with a random suffix, so only its
    # exit code and the empty stdout are pinned
    cache = tmp_path / "missing" / "kl.cache"
    code, stdout, _ = run(f"kl --series A --rank 1 --x e --y 1 --cache {cache}")
    assert (code, stdout) == (2, "")
