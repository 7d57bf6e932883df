import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import magh.cli
from magh.cli import main
from magh.metric import (
    FiniteMetricSpace,
    cycle_space,
    metric_closure,
    random_metric,
    validate_metric,
)

from test_spectra import wide_grid


def run_cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_cycle(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch, ["gen", "cycle", "4"])
    assert code == 0 and err == ""
    assert FiniteMetricSpace.from_json(out) == cycle_space(4)
    data = json.loads(out)
    assert data["d"][0][1] == "1"


def test_gen_pretty_and_outfile(capsys, monkeypatch, tmp_path):
    target = tmp_path / "space.json"
    code, out, _ = run_cli(
        capsys, monkeypatch, ["gen", "path", "3", "--pretty", "--out", str(target)]
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("{\n")
    assert FiniteMetricSpace.from_json(text).n == 3


def test_gen_random_seeded(capsys, monkeypatch):
    code, out1, _ = run_cli(capsys, monkeypatch, ["gen", "random", "5", "--seed", "9"])
    assert code == 0
    code, out2, _ = run_cli(capsys, monkeypatch, ["gen", "random", "5", "--seed", "9"])
    assert out1 == out2
    assert FiniteMetricSpace.from_json(out1) == random_metric(5, seed=9)


def test_pipe_gen_to_mx(capsys, monkeypatch):
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "cycle", "4"])
    code, out, _ = run_cli(capsys, monkeypatch, ["mx"], stdin=space_json)
    assert code == 0
    assert json.loads(out) == {"m_x": "3", "witness": [0, 1, 2, 3]}


def test_mx_infinite(capsys, monkeypatch):
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "path", "4"])
    code, out, _ = run_cli(capsys, monkeypatch, ["mx"], stdin=space_json)
    assert code == 0
    assert json.loads(out) == {"m_x": "inf", "witness": None}


def test_certify(capsys, monkeypatch):
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "cycle", "6"])
    code, out, _ = run_cli(
        capsys, monkeypatch, ["certify", "--pair", "0", "3"], stdin=space_json
    )
    assert code == 0
    assert json.loads(out) == {
        "components": 2,
        "distance": "3",
        "mh2_lower_bound": 1,
        "pair": [0, 3],
    }


def test_certify_pair_out_of_range(capsys, monkeypatch):
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "cycle", "4"])
    code, out, err = run_cli(
        capsys, monkeypatch, ["certify", "--pair", "0", "9"], stdin=space_json
    )
    assert code == 2
    assert "out of range" in err


def test_compute_csv(capsys, monkeypatch):
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "cycle", "4"])
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["compute", "--l", "2", "--n-max", "2", "--format", "csv"],
        stdin=space_json,
    )
    assert code == 0
    assert out.splitlines() == ["l,n,betti,torsion", "2,0,0,", "2,1,0,", "2,2,12,"]


def test_compute_table_spectrum(capsys, monkeypatch):
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "path", "3"])
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["compute", "--n-max", "2", "--l-max", "2"],
        stdin=space_json,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["l", "n", "betti", "torsion"]
    assert lines[1].split() == ["0", "0", "3", "-"]
    # grading 2 at degree 2 carries Z^4
    assert "2  2  4" in out


def test_compute_json_and_explicit_gradings(capsys, monkeypatch):
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "cycle", "4"])
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["compute", "--l", "1,2", "--n-max", "1", "--format", "json"],
        stdin=space_json,
    )
    assert code == 0
    rows = json.loads(out)
    assert [(r["l"], r["n"]) for r in rows] == [("1", 0), ("1", 1), ("2", 0), ("2", 1)]
    assert rows[1] == {"l": "1", "n": 1, "betti": 8, "torsion": []}


def test_compute_rejects_negative_grading(capsys, monkeypatch):
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "cycle", "4"])
    code, _, err = run_cli(
        capsys, monkeypatch, ["compute", "--l", "-1"], stdin=space_json
    )
    assert code == 2
    assert "negative grading" in err


def test_spectrum(capsys, monkeypatch):
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "path", "3"])
    code, out, _ = run_cli(
        capsys, monkeypatch, ["spectrum", "--n-max", "2"], stdin=space_json
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,l,count"
    assert "0,0,3" in lines
    assert "1,1,4" in lines and "1,2,2" in lines
    assert "2,2,6" in lines and "2,4,2" in lines


def test_spectrum_cap_bounds_the_count(capsys, monkeypatch):
    # on the 4-cycle the chains of degree n ending at one point take n + 1
    # lengths, so the count to degree 4 takes 3 * 4 * (1 + 2 + 3 + 4) steps,
    # where enumerating degree 4 would take 4 * 3**4 = 324 chains
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "cycle", "4"])
    argv = ["spectrum", "--n-max", "4", "--cap"]
    code, out, _ = run_cli(capsys, monkeypatch, argv + ["120"], stdin=space_json)
    assert code == 0
    assert out.splitlines()[-1] == "4,8,4"
    code, out, err = run_cli(capsys, monkeypatch, argv + ["119"], stdin=space_json)
    assert code == 2 and out == ""
    assert "reaches 120 steps, past the cap of 119" in err


def test_spectrum_and_compute_of_no_points(capsys, monkeypatch):
    # a space with no points loads; it has no chains, so only the headers print
    space = '{"d": []}'
    code, out, err = run_cli(capsys, monkeypatch, ["spectrum", "--n-max", "3"], stdin=space)
    assert (code, out, err) == (0, "n,l,count\n", "")
    argv = ["compute", "--n-max", "2", "--l", "spectrum"]
    code, out, err = run_cli(capsys, monkeypatch, argv, stdin=space)
    assert code == 0 and err == ""
    assert out.split() == ["l", "n", "betti", "torsion"]


def test_spectrum_byte_identical_across_hash_seeds(tmp_path):
    d = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            d[i][j] = d[j][i] = Fraction(1 + (i * 5 + j * 3) % 7, 2)
    space_file = tmp_path / "space.json"
    space_file.write_text(validate_metric(metric_closure(d)).to_json())
    argv = [sys.executable, "-m", "magh", "spectrum", "--in", str(space_file)]
    argv += ["--n-max", "5"]
    outputs = set()
    for hash_seed in ("0", "1", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        outputs.add(subprocess.run(argv, capture_output=True, check=True, env=env).stdout)
    assert len(outputs) == 1
    assert outputs.pop().startswith(b"n,l,count\n0,0,6\n1,1/2,")


def test_compute_spectrum_gradings_enumerate_no_chains(capsys, monkeypatch):
    # degree 6 has 10 * 9**6 = 5,314,410 chains, past the default cap; the
    # gradings come from the length count instead, and m_X is infinite on
    # a path, so every grading takes the frame route
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "path", "10"])
    argv = ["compute", "--n-max", "6", "--format", "json"]
    code, out, err = run_cli(capsys, monkeypatch, argv, stdin=space_json)
    assert code == 0 and err == ""
    code, explicit, _ = run_cli(
        capsys, monkeypatch, argv + ["--l", "1,2,3,4,5,6"], stdin=space_json
    )
    assert code == 0
    wanted = [str(l) for l in range(1, 7)]
    rows = [r for r in json.loads(out) if r["l"] in wanted]
    assert rows == json.loads(explicit)
    nonzero = [(r["l"], r["n"], r["betti"], r["torsion"]) for r in rows if r["betti"]]
    assert nonzero == [(str(l), l, 18, []) for l in range(1, 7)]


@pytest.mark.parametrize("space", [cycle_space(5), wide_grid()], ids=lambda s: s.name)
def test_compute_spectrum_gradings_are_the_spectrum_lengths(capsys, monkeypatch, space):
    # `compute --l spectrum` grades by the lengths `spectrum` prints, for
    # the packed count and, on the wide grid at n_max 3, the dict count
    for n_max in ("1", "3"):
        _, spectrum, _ = run_cli(
            capsys, monkeypatch, ["spectrum", "--n-max", n_max], stdin=space.to_json()
        )
        lengths = {line.split(",")[1] for line in spectrum.splitlines()[1:]}
        argv = ["compute", "--n-max", n_max, "--format", "json"]
        code, out, _ = run_cli(capsys, monkeypatch, argv, stdin=space.to_json())
        assert code == 0
        assert {row["l"] for row in json.loads(out)} == lengths


def test_main_called_again_in_one_process(capsys, monkeypatch):
    # main keeps each command's parser for the process; each call must
    # print what a single call in a fresh process prints, and a repeated
    # --check must not carry its list into the next call, across a usage
    # error too
    built = []
    monkeypatch.setattr(magh.cli, "_PARSERS", {})
    monkeypatch.setattr(
        magh.cli,
        "command_parser",
        lambda name, build=magh.cli.command_parser: built.append(name) or build(name),
    )
    space_json = cycle_space(5).to_json()
    calls = [
        ["gen", "cycle", "5"],
        ["verify", "--check", "d_squared", "--check", "simp_iso", "--in", "-"],
        ["verify", "--check", "bogus", "--in", "-"],
        ["verify", "--check", "tensor_route", "--check", "tensor_route", "--in", "-"],
        ["verify", "--n-max", "2", "--in", "-"],
        ["spectrum", "--n-max", "3", "--in", "-"],
        ["mx", "--in", "-"],
        ["verify", "--check", "d_squared", "--in", "-"],
    ]
    outs = []
    for argv in calls:
        single = subprocess.run(
            [sys.executable, "-m", "magh", *argv],
            input=space_json,
            capture_output=True,
            text=True,
        )
        try:
            code, out, err = run_cli(capsys, monkeypatch, argv, stdin=space_json)
        except SystemExit as exc:
            captured = capsys.readouterr()
            code, out, err = exc.code, captured.out, captured.err
        assert (code, out, err) == (single.returncode, single.stdout, single.stderr), argv
        outs.append((code, out))
    assert [code for code, _ in outs] == [0, 0, 2, 0, 0, 0, 0, 0]
    # each command's parser at most once, and only the commands called
    assert sorted(built) == sorted({argv[0] for argv in calls})
    checks = [[json.loads(line)["check"] for line in outs[i][1].splitlines()] for i in (1, 3, 4, 7)]
    assert checks == [
        ["d_squared", "simp_iso"],
        ["tensor_route", "tensor_route"],
        ["d_squared", "simp_iso", "frame_injectivity", "tensor_route"],
        ["d_squared"],
    ]


USAGE_ERRORS = {
    "gen": ["gen", "torus", "4"],
    "compute": ["compute", "--format", "xml"],
    "mx": ["mx", "stray"],
    "certify": ["certify", "--pair", "0"],
    "spectrum": ["spectrum", "--n-max", "-1"],
    "verify": ["verify", "--check", "bogus"],
}


@pytest.mark.parametrize(
    "argv",
    [[name, "-h"] for name in magh.cli.COMMANDS]
    + list(USAGE_ERRORS.values())
    + [["-h"], ["--version"], [], ["frobnicate"], ["compute", "--bogus"], ["mx", "--version"]],
    ids=" ".join,
)
def test_help_and_usage_texts_match_a_fresh_process(capsys, monkeypatch, argv):
    # in process, main builds only the named command's parser, and the
    # full one for top-level options, a missing or unknown command and
    # leftover arguments; a fresh `python -m magh` must print the same
    monkeypatch.setenv("COLUMNS", "80")
    fresh = subprocess.run(
        [sys.executable, "-m", "magh", *argv],
        capture_output=True,
        text=True,
        stdin=subprocess.DEVNULL,
    )
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (
        fresh.returncode,
        fresh.stdout,
        fresh.stderr,
    )
    assert fresh.returncode == (0 if "-h" in argv or argv == ["--version"] else 2)
    if argv == ["compute", "--bogus"]:
        # leftover arguments get the full parser's usage
        assert fresh.stderr.startswith("usage: magh [-h] [--version] {gen,")
        assert fresh.stderr.endswith("magh: error: unrecognized arguments: --bogus\n")


def test_top_level_help_lists_the_command_table(capsys, monkeypatch):
    # the full parser and the one-command parsers are built from one
    # table, so `magh -h` names exactly its commands, in its order
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["-h"])
    lines = capsys.readouterr().out.splitlines()
    names = list(magh.cli.COMMANDS)
    assert lines[0] == f"usage: magh [-h] [--version] {{{','.join(names)}}} ..."
    listed = [line.split()[0] for line in lines if line[:4] == "    " and line[4:5] != " "]
    assert listed == names


def test_verify_single_space(capsys, monkeypatch):
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "cycle", "4"])
    code, out, err = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--check", "d_squared", "--check", "simp_iso", "--in", "-"],
        stdin=space_json,
    )
    assert code == 0 and err == ""
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["check"] for r in reports] == ["d_squared", "simp_iso"]
    assert all(r["status"] == "pass" for r in reports)


def test_verify_default_suite_exit_zero(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, monkeypatch, ["verify", "--check", "d_squared", "--n-max", "2"]
    )
    assert code == 0
    assert len(out.splitlines()) == 14


def test_verify_failure_exit_one(capsys, monkeypatch):
    import magh.verify as verify_module

    # with no junction mask every self-framed tuple is realized, and the
    # six-cycle's frame (0, 1, 4) fails
    monkeypatch.setattr(verify_module, "_junction_mask", lambda view, prev, x: 0)
    _, space_json, _ = run_cli(capsys, monkeypatch, ["gen", "cycle", "6"])
    code, out, err = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--check", "tensor_route", "--in", "-"],
        stdin=space_json,
    )
    assert code == 1
    assert "1 of 1 checks failed" in err
    report = json.loads(out.splitlines()[0])
    assert report["status"] == "fail"


def test_verify_all_flag_removed(capsys):
    # every check runs unless --check picks some, so --all is gone
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --all" in capsys.readouterr().err


def test_bad_input_exit_two(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["mx"], stdin="not json or csv")
    assert code == 2
    assert "magh: error:" in err
    code, _, err = run_cli(capsys, monkeypatch, ["mx"], stdin="")
    assert code == 2
    assert "empty input" in err
    monkeypatch.setenv("MAGH_CAP", "abc")
    code, out, err = run_cli(capsys, monkeypatch, ["compute"], stdin=cycle_space(4).to_json())
    assert (code, out) == (2, "")
    assert "magh: error: MAGH_CAP must be an integer, got 'abc'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum"],
        ["compute"],
        ["compute", "--l", "1"],
        ["verify", "--in", "-"],
        ["verify", "--in", "-", "--check", "d_squared", "--n-max", "1"],
    ],
    ids=["spectrum", "compute", "compute-l", "verify", "verify-d-squared"],
)
def test_negative_cap_exits_two_before_any_work(capsys, monkeypatch, argv):
    # a negative cap ran until the first step and then reported
    # "enumeration reaches 1 steps, past the cap of -3"
    space = cycle_space(4).to_json()
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, monkeypatch, argv + ["--cap", "-1"], stdin=space)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"magh {argv[0]}: error: argument --cap: must be >= 0, got -1"
    ]
    monkeypatch.setenv("MAGH_CAP", "-3")
    code, out, err = run_cli(capsys, monkeypatch, argv, stdin=space)
    assert (code, out, err) == (2, "", "magh: error: MAGH_CAP must be >= 0, got -3\n")
    # the cap is resolved before any work, so a MAGH_CAP that is not an
    # integer is refused too, also where no degree reaches the cap
    monkeypatch.setenv("MAGH_CAP", "abc")
    code, out, err = run_cli(capsys, monkeypatch, argv, stdin=space)
    assert (code, out, err) == (2, "", "magh: error: MAGH_CAP must be an integer, got 'abc'\n")


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"d": [null]}', "field 'd' must be a list of rows, each a list of distances"),
        ('{"d": 3}', "field 'd' must be a list of rows, each a list of distances"),
        ('{"d": [], "labels": 0.0}', "field 'labels' must be a list of strings or ints"),
    ],
)
def test_misshapen_json_exits_two_with_one_line(capsys, monkeypatch, text, reason):
    # each of these ended in a TypeError traceback before from_json
    # checked the shapes of its fields
    code, out, err = run_cli(capsys, monkeypatch, ["mx"], stdin=text)
    assert (code, out, err) == (2, "", f"magh: error: {reason}\n")


@pytest.mark.parametrize(
    "text, entry",
    [
        ("a,b\n0,1e1000000\n1e1000000,0\n", "1e1000000"),
        ('{"d": [[0, "1e-1000000"], ["1e-1000000", 0]]}', "1e-1000000"),
    ],
    ids=["csv", "json"],
)
def test_huge_exponent_exits_two_with_one_line(capsys, monkeypatch, text, entry):
    code, out, err = run_cli(capsys, monkeypatch, ["mx"], stdin=text)
    assert (code, out) == (2, "")
    assert err == (
        f"magh: error: cannot parse rational from {entry!r}: "
        "decimal exponent exceeds 4300 in absolute value\n"
    )


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_length_too_long_to_print_exits_two_with_one_line(capsys, monkeypatch, fmt):
    # 9e4299 has 4,300 digits and loads, but the length 2 * 9e4299 of a
    # degree-2 chain has 4,301, past the interpreter's limit for printing
    text = "a,b\n0,9e4299\n9e4299,0\n"
    code, out, err = run_cli(
        capsys, monkeypatch, ["compute", "--n-max", "2", "--format", fmt], stdin=text
    )
    assert (code, out) == (2, "")
    assert err == "magh: error: cannot print rational: a term has more than 4300 digits\n"


def far_cycle7():
    """cycle(7) with each distance k written as "ke4299": every entry
    loads, and the length 12e4299 of degree 4 has 4,301 digits."""
    rows = [[f"{min(abs(i - j), 7 - abs(i - j))}e4299" for j in range(7)] for i in range(7)]
    return json.dumps({"d": rows})


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--n-max", "4"],
        ["compute", "--n-max", "4", "--format", "json", "--l", "1e4299,12e4299"],
        ["spectrum", "--n-max", "4"],
    ],
    ids=["compute-spectrum", "compute-list", "spectrum"],
)
def test_length_too_long_to_print_exits_before_any_work(capsys, monkeypatch, argv):
    # each wanted grading is formatted before the first search, and the
    # longest length of the spectrum before the count
    def refuse(*args, **kwargs):
        raise AssertionError("work began on a length that cannot be printed")

    monkeypatch.setattr(magh.cli, "magnitude_homology_rows", refuse)
    if argv[0] == "spectrum":
        monkeypatch.setattr(magh.cli, "length_spectra", refuse)
    code, out, err = run_cli(capsys, monkeypatch, argv, stdin=far_cycle7())
    assert (code, out) == (2, "")
    assert err == "magh: error: cannot print rational: a term has more than 4300 digits\n"


def test_entry_too_long_to_print_exits_two_at_load(capsys, monkeypatch):
    # its numerator and denominator have 4,301 digits; it is refused as
    # it loads, by a command that prints no length too
    entry = "1." + "1" * 4300
    text = f"a,b\n0,{entry}\n{entry},0\n"
    code, out, err = run_cli(capsys, monkeypatch, ["mx"], stdin=text)
    assert (code, out) == (2, "")
    assert err == "magh: error: entry [0][1]: a term has more than 4300 digits\n"


SUBCOMMAND_ARGS = {
    "gen": ["cycle", "4"],
    "compute": ["--l", "1,2", "--n-max", "2"],
    "mx": [],
    "certify": ["--pair", "0", "2"],
    "spectrum": ["--n-max", "2"],
    "verify": ["--check", "d_squared", "--n-max", "2"],
}


@pytest.mark.parametrize("command", sorted(set(SUBCOMMAND_ARGS) - {"gen"}))
def test_missing_infile_exit_two(capsys, monkeypatch, tmp_path, command):
    missing = tmp_path / "absent.json"
    argv = [command, *SUBCOMMAND_ARGS[command], "--in", str(missing)]
    code, out, err = run_cli(capsys, monkeypatch, argv)
    assert (code, out) == (2, "")
    assert err == f"magh: error: cannot read input {str(missing)!r}: No such file or directory\n"


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_unwritable_outfile_exit_two(capsys, monkeypatch, tmp_path, command):
    space = tmp_path / "c4.json"
    space.write_text(cycle_space(4).to_json())
    inputs = [] if command == "gen" else ["--in", str(space)]
    # a file in a directory that does not exist, and a directory
    for target in (tmp_path / "no-dir" / "out.txt", tmp_path):
        argv = [command, *SUBCOMMAND_ARGS[command], *inputs, "--out", str(target)]
        code, out, err = run_cli(capsys, monkeypatch, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"magh: error: cannot write output {str(target)!r}: "), err
        assert err.count("\n") == 1


def test_unreadable_infile_reports_without_traceback(tmp_path):
    # not UTF-8 text, and a directory: one line on stderr, exit 2
    binary = tmp_path / "space.bin"
    binary.write_bytes(b"\xff\xfe\x00")
    for path, reason in ((binary, "not UTF-8 text"), (tmp_path, "Is a directory")):
        proc = subprocess.run(
            [sys.executable, "-m", "magh", "mx", "--in", str(path)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"magh: error: cannot read input {str(path)!r}: {reason}\n"
    # stdin decoded strictly as UTF-8 whatever the locale, a bad byte in a
    # label included; the same label written as an escape is read
    labelled = b'{"d": [["0", "1"], ["1", "0"]], "labels": ["a\xff", "b"]}'
    unset = ("LANG", "LC_ALL", "PYTHONIOENCODING")
    for locale in ({}, {"LC_ALL": "C"}, {"LC_ALL": "C.UTF-8"}, {"PYTHONIOENCODING": "utf-8"}):
        env = {k: v for k, v in os.environ.items() if k not in unset}
        env.update(locale)
        for data in (binary.read_bytes(), labelled):
            proc = subprocess.run(
                [sys.executable, "-m", "magh", "mx"], input=data, capture_output=True, env=env
            )
            assert (proc.returncode, proc.stdout) == (2, b""), (locale, data)
            assert proc.stderr == b"magh: error: cannot read input from stdin: not UTF-8 text\n"
    escaped = labelled.replace(b"\xff", b"\\u00ff")
    proc = subprocess.run([sys.executable, "-m", "magh", "mx"], input=escaped, capture_output=True)
    assert proc.returncode == 0, proc.stderr


def test_stdin_newlines_read_as_a_file_reads_them(tmp_path):
    # CRLF and CR line ends on stdin give what LF gives, as they do in a file
    lf = cycle_space(5).to_csv().encode()
    argv = [sys.executable, "-m", "magh", "compute", "--n-max", "2", "--format", "csv"]
    want = subprocess.run(argv, input=lf, capture_output=True, check=True).stdout
    assert want.startswith(b"l,n,betti,torsion\n")
    for ends in (b"\r\n", b"\r"):
        text = lf.replace(b"\n", ends)
        path = tmp_path / "space.csv"
        path.write_bytes(text)
        for extra, data in (([], text), (["--in", str(path)], b"")):
            proc = subprocess.run(argv + extra, input=data, capture_output=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b""), (ends, extra)


def test_csv_space_input(capsys, monkeypatch):
    csv_text = cycle_space(4).to_csv()
    code, out, _ = run_cli(capsys, monkeypatch, ["mx"], stdin=csv_text)
    assert code == 0
    assert json.loads(out)["m_x"] == "3"


def test_infile_reading(capsys, monkeypatch, tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(cycle_space(4).to_json())
    code, out, _ = run_cli(capsys, monkeypatch, ["mx", "--in", str(path)])
    assert code == 0
    assert json.loads(out)["witness"] == [0, 1, 2, 3]


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def load_project():
    """The `[project]` table of pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def magh_installed():
    try:
        importlib.metadata.distribution("magh")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def run_console_script(capsys, monkeypatch, entry_point, argv):
    """Call an entry point the way pip's generated `magh` wrapper does."""
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        sys.exit(entry_point.load()())
    return exit_info.value.code, capsys.readouterr().out


def test_console_script_installed(capsys, monkeypatch):
    # The package declares the `magh` command, and the declared target runs.
    # Whether pip has put it on PATH is test_installed_console_script_on_path.
    project = load_project()
    assert project["scripts"] == {"magh": "magh.cli:main"}
    entry_point = importlib.metadata.EntryPoint(
        name="magh", value=project["scripts"]["magh"], group="console_scripts"
    )

    code, out = run_console_script(
        capsys, monkeypatch, entry_point, ["magh", "--version"]
    )
    assert code == 0
    assert out == f"magh {project['version']}\n"

    code, out = run_console_script(
        capsys, monkeypatch, entry_point, ["magh", "gen", "cycle", "4"]
    )
    assert code == 0
    assert FiniteMetricSpace.from_json(out) == cycle_space(4)


@pytest.mark.skipif(
    not magh_installed(),
    reason="the magh distribution is not installed "
    "(importlib.metadata.distribution('magh') raises PackageNotFoundError)",
)
def test_installed_console_script_on_path():
    assert shutil.which("magh") is not None
    installed = importlib.metadata.distribution("magh").entry_points.select(
        group="console_scripts", name="magh"
    )
    assert [ep.value for ep in installed] == [load_project()["scripts"]["magh"]]
    proc = subprocess.run(
        [shutil.which("magh"), "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0


def test_subprocess_pipeline():
    gen = subprocess.run(
        [sys.executable, "-m", "magh", "gen", "cycle", "6"],
        capture_output=True,
        text=True,
        check=True,
    )
    mx = subprocess.run(
        [sys.executable, "-m", "magh", "mx"],
        input=gen.stdout,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(mx.stdout) == {"m_x": "4", "witness": [0, 1, 2, 4]}


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "magh", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("magh ")


def test_usage_error_exit_code(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "magh", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    # numbers out of range are usage errors too, not failed checks (exit 1)
    for argv, option in (
        (["gen", "random", "4", "--max-w", "0"], "--max-w"),
        (["compute", "--n-max", "-2"], "--n-max"),
        (["spectrum", "--n-max", "-1"], "--n-max"),
        (["verify", "--n-max", "-1"], "--n-max"),
        (["verify", "--n-max", "two"], "--n-max"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {option}:" in capsys.readouterr().err
