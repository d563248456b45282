import ast
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goodfilt
from goodfilt import cli
from goodfilt.characters import tensor_nabla_multiplicities
from goodfilt.cli import main
from goodfilt.roots import build_root_system, star


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_rootsystem_a1():
    code, out, err = run(["rootsystem", "--series", "A", "--rank", "1", "--p", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["coxeter_number"] == 2
    assert data["jantzen_bound"] == 25
    assert err == ""


def test_rootsystem_advisory_and_strict():
    code, out, err = run(["rootsystem", "--series", "A", "--rank", "2", "--p", "3"])
    assert code == 0
    assert "advisory" in err and "2h-2" in err
    code2, _, err2 = run(
        ["rootsystem", "--series", "A", "--rank", "2", "--p", "3", "--strict"]
    )
    assert code2 == 2
    assert "strict" in err2


def test_rootsystem_invalid_rank_exits_2():
    code, out, err = run(["rootsystem", "--series", "D", "--rank", "2", "--p", "5"])
    assert code == 2
    assert "error" in err


def test_nonprime_p_exits_2():
    code, _, err = run(["rootsystem", "--series", "A", "--rank", "1", "--p", "6"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, p",
    [
        (["locate", "--series", "A", "--rank", "1", "--p", "4", "--weight", "1"], 4),
        (["rootsystem", "--series", "A", "--rank", "1", "--p", "4"], 4),
        (["check-identity", "--series", "A", "--rank", "1", "--p", "9", "--max-pairing", "12"], 9),
    ],
)
def test_a_p_that_is_not_prime_exits_2_with_the_library_message(argv, p):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: p={p} is not prime\n"


def test_locate():
    code, out, _ = run(
        ["locate", "--series", "A", "--rank", "1", "--p", "5", "--weight", "8"]
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "antidominant": "-2",
        "length": 2,
        "regular": True,
        "word": [1, 0],
    }


def test_locate_negative_weight():
    code, out, _ = run(
        ["locate", "--series", "A", "--rank", "1", "--p", "5", "--weight", "-4"]
    )
    assert code == 0
    assert json.loads(out)["length"] == 0


def test_locate_singular_exits_3():
    code, out, _ = run(
        ["locate", "--series", "A", "--rank", "1", "--p", "5", "--weight", "4"]
    )
    assert code == 3
    data = json.loads(out)
    assert data["regular"] is False
    assert data["vanishing_pairing"] == 5


def test_kl_command():
    code, out, _ = run(
        ["kl", "--series", "A", "--rank", "1", "--x", "1", "--y", "1,0,1"]
    )
    assert code == 0
    assert json.loads(out)["p_of_q"] == [1]
    code2, out2, _ = run(["kl", "--series", "A", "--rank", "1", "--x", "0,1", "--y", "1,0"])
    assert code2 == 0
    assert json.loads(out2)["p_of_q"] == []


def test_kl_cache_flag(tmp_path):
    cache = str(tmp_path / "b2.klcache")
    args = [
        "kl", "--series", "B", "--rank", "2",
        "--x", "1", "--y", "1,2,0,1,2,1", "--cache", cache,
    ]
    code, out_cold, err = run(args)
    assert code == 0 and "saved" in err
    code2, out_warm, err2 = run(args)
    assert code2 == 0 and "loaded" in err2
    assert out_cold == out_warm


def test_tensor_single_weight():
    code, out, _ = run(["tensor", "--series", "A", "--rank", "2", "--weights", "2,1"])
    assert code == 0
    assert json.loads(out) == {"2,1": 1}
    # a lone weight is validated like the factors of a product
    for bad in ("-1,2", "2,1,0"):
        code, out, err = run(["tensor", "--series", "A", "--rank", "2", f"--weights={bad}"])
        assert code == 2 and out == "" and f"({bad.replace(',', ', ')})" in err


def test_extmult_omega_filter():
    base = [
        "extmult", "--series", "A", "--rank", "1", "--p", "5",
        "--variant", "red_nabla", "--lam", "0", "--mu", "8", "--n", "3",
    ]
    code, out, _ = run(base + ["--omega", "4"])
    assert code == 0
    assert json.loads(out) == {"4": 1}
    code2, out2, _ = run(base + ["--omega", "0"])
    assert json.loads(out2) == {}


def test_kl_bad_generator_index():
    code, _, err = run(["kl", "--series", "A", "--rank", "1", "--x", "3", "--y", "1"])
    assert code == 2


def test_kl_letter_beyond_the_rank_exits_2_before_any_output():
    code, out, err = run(["kl", "--series", "A", "--rank", "2", "--x", "3", "--y", "1"])
    assert (code, out) == (2, "")
    assert "out of range" in err


def test_kl_answers_a_deep_word_under_a_low_recursion_limit():
    # the KL recursion goes deeper with every letter of y, and runs on a
    # stack of its own: 120 letters need far more than 60 frames as recursion
    argv = ["kl", "--series", "A", "--rank", "1", "--x", "e",
            "--y", ",".join(str(i % 2) for i in range(120))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        low = run(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert low == run(argv)
    code, out, err = low
    assert (code, err, json.loads(out)["p_of_q"]) == (0, "", [1])


def test_kl_word_parse_error():
    code, _, _ = run(["kl", "--series", "A", "--rank", "1", "--x", "a", "--y", "1"])
    assert code == 2


def test_tensor_command():
    code, out, _ = run(
        ["tensor", "--series", "A", "--rank", "1", "--weights", "2", "3"]
    )
    assert code == 0
    assert json.loads(out) == {"1": 1, "3": 1, "5": 1}
    code, out, _ = run(
        ["tensor", "--series", "A", "--rank", "2", "--weights", "1,0", "0,1"]
    )
    assert json.loads(out) == {"0,0": 1, "1,1": 1}
    code, out, _ = run(
        ["tensor", "--series", "A", "--rank", "1", "--weights", "1", "1", "1"]
    )
    assert json.loads(out) == {"1": 2, "3": 1}


def test_extmult_command():
    code, out, err = run(
        [
            "extmult", "--series", "A", "--rank", "1", "--p", "5",
            "--variant", "red_nabla", "--lam", "0", "--mu", "8", "--n", "1",
        ]
    )
    assert code == 0
    assert json.loads(out) == {"2": 1}
    assert "advisory" in err  # the character-formula assumption note


def test_extmult_strict_distinguishes_notes_from_warnings():
    base = [
        "extmult", "--series", "A", "--rank", "1", "--p", "5",
        "--variant", "red_red", "--lam", "2", "--mu", "2", "--n", "0", "--strict",
    ]
    code, out, err = run(base)
    assert code == 0  # only the standing hypothesis note is present
    assert "note:" in err
    code2, _, err2 = run(
        [
            "extmult", "--series", "A", "--rank", "2", "--p", "3",
            "--variant", "red_red", "--lam", "1,1", "--mu", "1,1", "--n", "0",
            "--strict",
        ]
    )
    assert code2 == 2  # p < 2h-2 is a violated condition
    assert "warning" in err2


def test_extmult_g2_full_table_is_exact():
    # a length window of n + 8 past the partner missed (1,3), (2,2) and (4,1);
    # the full table is the union of the omega answers and exits 0
    argv = [
        "extmult", "--series", "G", "--rank", "2", "--p", "13",
        "--variant", "red_nabla", "--lam", "0,2", "--mu", "2,19", "--n", "6", "--strict",
    ]
    code, out, _ = run(argv)
    assert code == 0
    full = json.loads(out)
    assert {"1,3": 1, "2,2": 1, "4,1": 1}.items() <= full.items()
    omegas = sorted(full) + ["0,0", "3,3", "5,0"]
    code, out, _ = run(argv + [a for w in omegas for a in ("--omega", w)])
    assert code == 0
    assert json.loads(out) == full


@pytest.mark.parametrize(
    "argv, omega_answer",
    [
        (["--series", "G", "--rank", "2", "--p", "13", "--variant", "red_red",
          "--lam", "23,3", "--mu", "14,1", "--n", "1"],
         {"0,0": 1, "1,0": 4, "3,0": 1}),
        (["--series", "B", "--rank", "2", "--p", "7", "--variant", "delta_red",
          "--lam", "0,0", "--mu", "5,2", "--n", "3"],
         {"1,2": 1}),
    ],
)
def test_extmult_full_tables_hold_their_omega_answers(argv, omega_answer):
    # a length window of n + 8 past the partner printed {} for the first
    # and dropped (1,2) from the second, with exit 0 and no warning
    code, out, _ = run(["extmult", *argv, "--strict"])
    assert code == 0
    full = json.loads(out)
    assert omega_answer.items() <= full.items()
    code, out, _ = run(["extmult", *argv, *(a for w in omega_answer for a in ("--omega", w))])
    assert (code, json.loads(out)) == (0, omega_answer)


def test_extmult_unlinked_empty_exit_zero():
    code, out, _ = run(
        [
            "extmult", "--series", "A", "--rank", "1", "--p", "5",
            "--variant", "red_red", "--lam", "2", "--mu", "0", "--n", "0",
        ]
    )
    assert code == 0
    assert json.loads(out) == {}


def test_extmult_singular_exits_3():
    code, _, err = run(
        [
            "extmult", "--series", "A", "--rank", "1", "--p", "5",
            "--variant", "red_red", "--lam", "4", "--mu", "2", "--n", "0",
        ]
    )
    assert code == 3


def test_tsv_matches_json():
    args = [
        "extmult", "--series", "A", "--rank", "1", "--p", "5",
        "--variant", "red_red", "--lam", "2", "--mu", "2", "--n", "2",
    ]
    _, out_json, _ = run(args)
    _, out_tsv, _ = run(args + ["--format", "tsv"])
    parsed = {}
    lines = out_tsv.strip().split("\n")
    assert lines[0] == "omega\tmultiplicity"
    for line in lines[1:]:
        k, v = line.split("\t")
        parsed[k] = int(v)
    assert parsed == json.loads(out_json)


def test_byte_stable_output():
    args = [
        "extmult", "--series", "A", "--rank", "1", "--p", "5",
        "--variant", "red_red", "--lam", "2", "--mu", "2", "--n", "2",
    ]
    assert run(args) == run(args)


def test_cache_roundtrip(tmp_path):
    cache = str(tmp_path / "kl.cache")
    args = [
        "extmult", "--series", "A", "--rank", "1", "--p", "5",
        "--variant", "red_red", "--lam", "12", "--mu", "2", "--n", "2",
        "--cache", cache,
    ]
    code, out_cold, err = run(args)
    assert code == 0 and "saved" in err
    code2, out_warm, err2 = run(args)
    assert code2 == 0 and "loaded" in err2
    assert out_cold == out_warm
    # corrupt cache is rejected with exit 2
    with open(cache, "w") as fh:
        fh.write('{"format": "other"}\n')
    code3, _, err3 = run(args)
    assert code3 == 2


CACHE_COMMANDS = {
    "kl": ["kl", "--series", "A", "--rank", "1", "--x", "1", "--y", "1,0,1"],
    "extmult": [
        "extmult", "--series", "A", "--rank", "1", "--p", "5",
        "--variant", "red_red", "--lam", "12", "--mu", "2", "--n", "2",
    ],
    "check-identity": [
        "check-identity", "--series", "A", "--rank", "1", "--p", "5",
        "--max-pairing", "12",
    ],
}


@pytest.mark.parametrize("unusable", ["missing_directory", "directory", "non_utf8"])
@pytest.mark.parametrize("command", sorted(CACHE_COMMANDS))
def test_unusable_cache_path_exits_2_before_any_output(tmp_path, command, unusable):
    if unusable == "missing_directory":
        path = tmp_path / "missing" / "kl.cache"
    elif unusable == "directory":
        path = tmp_path / "kl.cache"
        path.mkdir()
    else:
        path = tmp_path / "kl.cache"
        header = '{"format": "kltable", "version": 1, "series": "A", "rank": 1}\n'
        path.write_bytes(header.encode() + b'{"x": [], "y": [1], "p_of_q": [1]}\xff\n')
    code, out, err = run(CACHE_COMMANDS[command] + ["--cache", str(path)])
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(path) in errors[0]


def test_kl_cache_serves_extmult_and_extmult_saves_only_flagged_pairs(tmp_path):
    # a version-1 cache written by `kl` holds pairs of unflagged ids; extmult
    # loads it and prints the same tables, and saves flagged pairs only
    from goodfilt.affine import get_group

    g = get_group("A", 2)
    header = {"format": "kltable", "version": 1, "series": "A", "rank": 2}
    y = g.dominant_up_to_length(9)[-1]
    kl_cache = tmp_path / "kl.klcache"
    word = ",".join(map(str, g.canonical_word(y)))
    code, _, _ = run(["kl", "--series", "A", "--rank", "2", "--x", "e", "--y", word,
                      "--cache", str(kl_cache)])
    assert code == 0

    def records(path):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == header
        return [(g.from_word(r["x"]), g.from_word(r["y"])) for r in lines[1:]]

    pairs = records(kl_cache)
    assert any(not g.is_dominant(x) for x, _ in pairs)
    assert any(g.is_dominant(x) and g.is_dominant(y) for x, y in pairs)

    fresh_cache = tmp_path / "extmult.klcache"
    entries = 0
    for variant in ("red_red", "delta_red", "red_nabla"):
        for n in ("0", "1", "2"):
            args = ["extmult", "--series", "A", "--rank", "2", "--p", "7",
                    "--variant", variant, "--lam", "9,5", "--mu", "4,9", "--n", n]
            code, plain, _ = run(args)
            assert code == 0
            entries += len(json.loads(plain))
            assert run(args + ["--cache", str(kl_cache)])[1] == plain
            assert run(args + ["--cache", str(fresh_cache)])[1] == plain
    assert entries >= 10
    pairs = records(fresh_cache)
    assert pairs
    assert all(g.is_dominant(x) and g.is_dominant(y) for x, y in pairs)


def test_check_identity_small():
    code, out, _ = run(
        [
            "check-identity", "--series", "A", "--rank", "1", "--p", "5",
            "--max-pairing", "20",
        ]
    )
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert data["cases"] > 0
    assert "pass" in data["message"]


def test_check_identity_reports_failures(monkeypatch):
    from goodfilt import characters

    real = characters.dim_weight_space

    def one_less(rs, tau, xi):
        return real(rs, tau, xi) - 1

    monkeypatch.setattr(characters, "dim_weight_space", one_less)
    code, out, _ = run(
        [
            "check-identity", "--series", "A", "--rank", "1", "--p", "5",
            "--max-pairing", "12",
        ]
    )
    assert code == 4
    data = json.loads(out)
    assert data["failures"] and data["message"] == f"{len(data['failures'])} failures"
    first = data["failures"][0]
    assert sorted(first) == ["lhs", "mu", "rhs", "tau"]
    assert first["lhs"] == first["rhs"] + 1 and isinstance(first["mu"], str)


def test_check_identity_over_an_empty_box_exits_2_with_empty_stdout():
    code, out, err = run(
        ["check-identity", "--series", "A", "--rank", "2", "--p", "7", "--max-pairing", "-5"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: max_pairing=-5 leaves no decomposable p-regular mu")


def test_only_the_runner_does_the_io():
    # a command only computes; the workspace, the cache, the output and the
    # advisory lines are the business of _run alone
    io_calls = {"make_workspace", "load", "save", "emit"}
    doers = set()
    for fn in ast.parse(Path(cli.__file__).read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        calls = {getattr(n.func, "attr", getattr(n.func, "id", None))
                 for n in nodes if isinstance(n, ast.Call)}
        texts = [n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        if calls & io_calls or any("advisory:" in t for t in texts):
            doers.add(fn.name)
    assert doers == {"_run"}


def test_usage_errors_and_help_go_to_the_given_streams(capsys):
    code, out, err = run(["kl", "--series", "A", "--rank", "2", "--x", "1,a", "--y", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: goodfilt kl") and "bad word '1,a'" in err
    # a negative letter is no usage error: the group's walk refuses it, as any letter
    code, out, err = run(["kl", "--series", "A", "--rank", "2", "--x", "-1", "--y", "1"])
    assert (code, out, err) == (2, "", "error: word (-1,) has letter -1 out of range 0..2\n")
    code, out, err = run(["rootsystem", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: goodfilt rootsystem")
    assert capsys.readouterr() == ("", "")


def test_a_negative_first_coordinate_is_passed_with_an_equals_sign():
    # "--weight=-3,-2" itself is a golden case of test_cli_golden_commands.py
    argv = ["locate", "--series", "A", "--rank", "2", "--p", "5"]
    code, out, err = run(argv + ["--weight", "-3,-2"])
    assert (code, out) == (2, "") and "argument --weight: expected one argument" in err
    for command, flags in (("locate", ["--weight"]), ("extmult", ["--lam", "--mu", "--omega"])):
        _, out, _ = run([command, "--help"])
        for flag in flags:
            assert f"passed as {flag}=-3,-2" in " ".join(out.split())


def test_usage_error_exits_2():
    assert run(["locate", "--series", "A", "--rank", "1", "--p", "5"])[0] == 2
    assert run(["nonsense"])[0] == 2


def test_stats_flag_reports_one_json_line():
    argv = ["tensor", "--series", "A", "--rank", "2", "--weights", "1,0", "0,1"]
    _, plain_out, _ = run(argv)
    code, out, err = run(argv + ["--stats"])
    assert code == 0 and out == plain_out
    (line,) = err.splitlines()
    stats = json.loads(line)
    assert stats["wall_s"] >= 0 and stats["cpu_s"] >= 0
    assert stats["characters"]["tensor_pairs"] >= 1
    assert "workspace" not in stats  # tensor builds no workspace

    argv = [
        "extmult", "--series", "A", "--rank", "1", "--p", "5",
        "--variant", "red_nabla", "--lam", "0", "--mu", "8", "--n", "1",
    ]
    plain = run(argv)
    code, out, err = run(argv + ["--stats"])
    assert (code, out) == plain[:2]
    lines = err.splitlines()
    assert lines[:-1] == plain[2].splitlines()  # the advisories come first
    stats = json.loads(lines[-1])
    assert stats["characters"]["tensor_pairs"] >= 1
    assert stats["workspace"]["kl_entries"] >= 1


def run_fresh(argv):
    """The CLI in a fresh process, since groups are shared within one."""
    src = str(Path(goodfilt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "goodfilt.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_extmult_stats_locates_only_the_partner():
    # the table works on the elements it enumerates and locates only the partner weight
    argv = [
        "extmult", "--series", "B", "--rank", "2", "--p", "7", "--variant", "red_red",
        "--lam", "1,0", "--mu", "2,8", "--n", "2", "--stats",
    ]
    done = run_fresh(argv)
    assert done.returncode == 0, done.stderr
    stats = json.loads(done.stderr.splitlines()[-1])["workspace"]
    # the whole block: a row fill that creates extra ids or walks differently shows here;
    # the mu-sum Bruhat-tests only the z of odd length gap, so bruhat_memo holds 66
    assert stats == {
        "ids": 44, "flagged_ids": 26, "bruhat_memo": 66,
        "ideal_memo": 0, "kl_entries": 63, "locate_memo": 1,
    }


def test_red_red_degree_zero_tensors_no_unit_factor():
    # lambda = (1,1,3) + 5 (1,0,0) and mu = (1,1,3) + 5 (0,0,1): the one factor
    # is at tau = 0, and nabla(0), the unit, is folded in by no tensor pair
    argv = [
        "extmult", "--series", "A", "--rank", "3", "--p", "5", "--variant", "red_red",
        "--lam", "6,1,3", "--mu", "1,1,8", "--n", "0", "--stats",
    ]
    done = run_fresh(argv)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stderr.splitlines()[-1])["characters"]
    assert (counts["tensor_pairs"], counts["dimensions"]) == (1, 1)
    rs = build_root_system("A", 3)
    expected = tensor_nabla_multiplicities(rs, star(rs, (1, 0, 0)), (0, 0, 1))
    assert json.loads(done.stdout) == {",".join(map(str, w)): m for w, m in expected.items()}


def test_extmult_omega_stats_locate_only_the_partner():
    # omega mode walks the same orbit as a full table, up to the length of
    # its highest candidate, and keeps the taus below omega + shift; a
    # candidate walked into C_p^- would show in locate_memo (6 when each was)
    argv = [
        "extmult", "--series", "B", "--rank", "2", "--p", "7", "--variant", "red_nabla",
        "--lam", "1,0", "--mu", "2,8", "--n", "2", "--omega", "1,1", "--omega", "0,2", "--stats",
    ]
    done = run_fresh(argv)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"0,2": 1}
    stats = json.loads(done.stderr.splitlines()[-1])["workspace"]
    assert stats == {
        "ids": 30, "flagged_ids": 15, "bruhat_memo": 7,
        "ideal_memo": 0, "kl_entries": 5, "locate_memo": 1,
    }
