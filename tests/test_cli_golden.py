"""Golden CLI output: the exact stdout, stderr and exit code of the commands
that report advisories, each with and without ``--strict``.

The CLI builds the advisory lines from ``roots.validate_p`` and
``roots.in_jantzen_region``; these cases pin the lines, their order on
stderr and the exit codes byte for byte.
"""

import io

import pytest

from goodfilt.cli import main

NOTE = (
    "advisory: note: results assume the characteristic-p irreducible character "
    "formula for all p-regular weights\n"
)
STRICT = "error: advisories present and --strict given\n"


def outside(name):
    """The region warning for a weight (40,1) on A2 at p = 7."""
    return (
        f"advisory: warning: {name}=[40, 1] lies outside the region "
        f"<w+rho, alpha_0^vee> <= p(p-h+2) = 42\n"
    )


A2_P3_ROOTSYSTEM = (
    '{"coxeter_number": 3, "highest_short_coroot": "1,1", "highest_short_root": "1,1", '
    '"jantzen_bound": 6, "num_positive_roots": 3, "positive_roots": '
    '{"0": "0,1", "1": "1,0", "2": "1,1"}, "rank": 2, "rho": "1,1", "series": "A"}\n'
)
DELTA_RED_40_1 = (
    '{"0,3": 3, "1,1": 3, "1,4": 3, "2,2": 3, "2,5": 3, "3,0": 1, "3,3": 3, '
    '"3,6": 3, "4,1": 1, "4,4": 3, "4,7": 2, "5,2": 1, "5,5": 3, "6,3": 1, '
    '"6,6": 2, "7,4": 1}\n'
)

# (argv, stdout, stderr without --strict, whether --strict fails the run)
GOLDEN = [
    # p = 3 < 2h - 2 = 4 on A2: rootsystem prints the prime warning bare
    (
        "rootsystem --series A --rank 2 --p 3",
        A2_P3_ROOTSYSTEM,
        "advisory: p=3 < 2h-2 = 4 for A2\n",
        True,
    ),
    # every hypothesis checkable on the inputs holds: only the standing note
    (
        "extmult --series A --rank 1 --p 5 --variant red_nabla --lam 0 --mu 8 --n 1",
        '{"2": 1}\n',
        NOTE,
        False,
    ),
    # the prime warning comes before the note
    (
        "extmult --series A --rank 2 --p 3 --variant red_red --lam 1,1 --mu 1,1 --n 0",
        '{"0,0": 1}\n',
        "advisory: warning: p=3 < 2h-2 = 4 for A2\n" + NOTE,
        True,
    ),
    # <(40,1) + rho, alpha_0^vee> = 43 > p(p-h+2) = 42: the region warning follows the note
    (
        "extmult --series A --rank 2 --p 7 --variant red_nabla --lam 0,0 --mu 40,1 --n 1",
        '{"6,0": 1}\n',
        NOTE + outside("mu"),
        True,
    ),
    # both weights outside the region: lambda's warning before mu's
    (
        "extmult --series A --rank 2 --p 7 --variant delta_red --lam 40,1 --mu 40,1 --n 2",
        DELTA_RED_40_1,
        NOTE + outside("lambda") + outside("mu"),
        True,
    ),
]


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize(
    "command, stdout, stderr, strict_fails",
    GOLDEN,
    ids=["rootsystem-A2-p3", "extmult-A1-p5", "extmult-A2-p3", "extmult-A2-p7-mu", "extmult-A2-p7-both"],
)
def test_cli_output_is_byte_identical(command, stdout, stderr, strict_fails, strict):
    argv = command.split() + (["--strict"] if strict else [])
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    fails = strict and strict_fails
    assert (code, out.getvalue(), err.getvalue()) == (
        2 if fails else 0,
        stdout,
        stderr + (STRICT if fails else ""),
    )
