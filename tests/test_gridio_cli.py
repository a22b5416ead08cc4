"""Grid text round trips, the census, and the CLI surface."""

import argparse
import dataclasses
import hashlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from polyomino_ideals import (
    BadCharacterError,
    EmptyInputError,
    NotConnectedError,
    Polyomino,
    parse_grid,
    render_grid,
)
from polyomino_ideals import cli
from polyomino_ideals.cli import main
from conftest import grow_polyomino

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def test_parse_examples(P2, P5):
    assert parse_grid("##") == P2
    assert parse_grid("###\n#.#\n###") == P5
    with pytest.raises(NotConnectedError):
        parse_grid("#.\n.#")
    with pytest.raises(EmptyInputError):
        parse_grid("...\n...")
    with pytest.raises(EmptyInputError):
        parse_grid("")
    with pytest.raises(BadCharacterError):
        parse_grid("#x")


def test_render_examples(P1, P5, P6):
    assert render_grid(P1) == "#"
    assert render_grid(P5) == "###\n#.#\n###"
    assert render_grid(P6) == ".##\n##.\n.##"


def test_parse_render_round_trip(fixtures):
    for P in fixtures.values():
        assert parse_grid(render_grid(P)) == P
    rng = random.Random(43)
    for _ in range(500):
        P = grow_polyomino(rng.randint(1, 10), rng)
        assert parse_grid(render_grid(P)) == P


def test_ragged_lines_pad_right():
    assert parse_grid("##\n#") == Polyomino({(0, 0), (0, 1), (1, 1)})


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_parse_and_render(capsys, tmp_path):
    grid = tmp_path / "p.txt"
    grid.write_text("##\n#.\n")
    code, out, _ = run_cli(capsys, ["parse", str(grid), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["num_cells"] == 3

    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps(payload["cells"]))
    code, out, _ = run_cli(capsys, ["render", str(cells)])
    assert code == 0
    assert out == "##\n#.\n"


def test_cli_classify_frame(capsys, tmp_path):
    grid = tmp_path / "p5.txt"
    grid.write_text("###\n#.#\n###\n")
    code, out, _ = run_cli(capsys, ["classify", str(grid), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["simple"] is False
    assert tuple(payload["hole"]) == (1, 1)
    assert payload["tree_like"] is False


def test_cli_groebner_orders(capsys, tmp_path):
    grid = tmp_path / "p4.txt"
    grid.write_text("##\n##\n")
    for spec in ("degrevlex", "lex", "deglex:perm=8,7,6,5,4,3,2,1,0"):
        code, out, _ = run_cli(capsys, ["groebner", str(grid), "--order", spec, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["basis_size"] == 9
        assert payload["initial_squarefree"] is True


def test_cli_balanced_prime_dimension(capsys, tmp_path):
    grid = tmp_path / "p3.txt"
    grid.write_text("#.\n##\n")
    code, out, _ = run_cli(capsys, ["balanced", str(grid), "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["schema"] == 2
    assert (payload["balanced"], payload["offending"], payload["cycles_checked"]) == (True, None, 5)
    assert "shared_gb_size" not in payload
    code, out, _ = run_cli(capsys, ["balanced", str(grid)])
    assert code == 0 and out.splitlines() == [
        "balanced: True",
        "certificate: all 5 chordless cycles of the interval graph are inner 4-cycles",
    ]
    code, out, _ = run_cli(capsys, ["prime", str(grid), "--format", "json"])
    assert code == 0 and json.loads(out)["prime"] is True
    code, out, _ = run_cli(capsys, ["dimension", str(grid), "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["dimension"] == payload["num_vertices"] - payload["num_cells"]


# SHA-256 of `cycles` output, with and without --primitive: the JSON payload
# without "timings", dumped with sorted keys, and the text as printed.
# Recorded from the point-walking enumeration the interval-graph search
# replaced; `count` is the number of cycles.
CYCLES_OUTPUT = {
    ("staple", False): (132, "0c60574cf931058e2b2edd22c3198dfcaa839170ecf613c4b37843a73cf036a4",
                        "879b3b5609e82b1f2cded173b00bd450e8531cfa859a403cd1a482aa06ec35e4"),
    ("staple", True): (38, "42e4cd42fb365abf5d5b34103bdc6a857695da8ebdd88228b439173da1b7636d",
                       "703d7fa6857fc51c12b4175e361c2cd3f0f2dcfb8d40c4109adc958b4ab2ba55"),
    ("frame", False): (5892, "7ed2067dbcd102a2ac3d03f1b4264bffa8049d7e6e5de0364f0d9b2e5342e046",
                       "8b15af12ae0425d54503908134a6778aa9183a7ccad77c3ed7571ef184d823ed"),
    ("frame", True): (204, "bb41a460461374d04ed7a7e7e349415534d1abdced82d44b312c9f21e10e6bda",
                      "08ea80ca75e1108dd1818b104ee7bac9ecd7071ed25efab1c763ecd3a359fc1f"),
}


@pytest.mark.parametrize("name, primitive", sorted(CYCLES_OUTPUT))
def test_cli_cycles_output_is_pinned(capsys, tmp_path, name, primitive):
    grid = tmp_path / name
    grid.write_text({"staple": ".##\n##.\n.##\n", "frame": "###\n#.#\n###\n"}[name])
    flags = ["--primitive"] if primitive else []
    count, json_sha, text_sha = CYCLES_OUTPUT[(name, primitive)]
    code, out, _ = run_cli(capsys, ["cycles", str(grid), "--format", "json", *flags])
    payload = json.loads(out)
    del payload["timings"]
    assert code == 0 and payload["count"] == count
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == json_sha
    code, out, _ = run_cli(capsys, ["cycles", str(grid), *flags])
    assert code == 0 and out.startswith(f"count: {count}\n")
    assert hashlib.sha256(out.encode()).hexdigest() == text_sha


def test_cli_cycles_and_ideal(capsys, tmp_path):
    grid = tmp_path / "p4.txt"
    grid.write_text("##\n##\n")
    code, out, _ = run_cli(capsys, ["cycles", str(grid), "--primitive", "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 15
    assert payload["by_length"] == {"4": 9, "6": 6}
    code, out, _ = run_cli(capsys, ["ideal", str(grid), "--format", "json"])
    assert code == 0 and json.loads(out)["num_generators"] == 9


def test_cli_ugb_check(capsys, tmp_path):
    grid = tmp_path / "p2.txt"
    grid.write_text("##\n")
    code, out, _ = run_cli(capsys, ["ugb-check", str(grid), "--orders", "2", "--seed", "5", "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["schema"] == 3
    assert payload["candidates_in_ideal"] is True
    assert payload["passed"] is True
    assert len(payload["outcomes"]) == 7  # lex, deglex, degrevlex + 2 perms + 2 weights
    assert all(set(o) == {"order", "gb_within_candidates", "initial_squarefree", "gb_size"}
               for o in payload["outcomes"])


def test_cli_certify_treelike(capsys, tmp_path):
    grid = tmp_path / "p3.txt"
    grid.write_text("#.\n##\n")
    labeling = tmp_path / "lab.txt"
    labeling.write_text("0 0 1\n2 1 1\n0 1 -1\n2 0 -1\n")
    code, out, _ = run_cli(capsys, ["certify-treelike", str(grid), "--labeling", str(labeling), "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["valid"] is True
    assert payload["length"] >= 1


def test_cli_census_exit_codes(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["census", "--max-cells", "4", "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out)["counterexamples"] == []

    # exit code 2 is reserved for a counterexample; force one by flipping the
    # domino's balanced verdict
    balanced = cli.is_balanced

    def flipped(P):
        report = balanced(P)
        return dataclasses.replace(report, balanced=not report.balanced) if len(P) == 2 else report

    monkeypatch.setattr(cli, "is_balanced", flipped)
    code, out, err = run_cli(capsys, ["census", "--max-cells", "4", "--format", "json"])
    assert code == 2
    assert "simple and balanced disagree" in err
    assert json.loads(out)["counterexamples"] == [{
        "grid": "#\n#", "simple": True, "hole": None, "balanced": False, "adm_rank": 2, "ncells": 2,
    }]


def test_cli_json_determinism(capsys, tmp_path):
    grid = tmp_path / "p6.txt"
    grid.write_text(".##\n##.\n.##\n")
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["classify", str(grid), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        payload.pop("timings")
        outputs.append(json.dumps(payload))
    assert outputs[0] == outputs[1]


def test_cli_usage_errors(capsys, monkeypatch, tmp_path):
    code, _, err = run_cli(capsys, ["groebner", "/nonexistent/grid.txt"])
    assert code == 1 and "error:" in err

    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("#x\n"))
    code, _, err = run_cli(capsys, ["parse", "-"])
    assert code == 1 and "error:" in err

    grid = tmp_path / "p.txt"
    grid.write_text("##\n")
    code, _, err = run_cli(capsys, ["groebner", str(grid), "--order", "lex:perm=1,0"])
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["census", "--help"]])
def test_cli_help_and_version_exit_0(argv):
    proc = _run_module(argv)
    assert proc.returncode == 0 and proc.stderr == "" and "polyideal" in proc.stdout


def test_cli_certify_large_labels_without_traceback(tmp_path):
    labeling = tmp_path / "lab.txt"
    labeling.write_text("0 0 2000\n2 1 2000\n0 1 -2000\n2 0 -2000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "polyomino_ideals", "certify-treelike", "--format", "json",
         "--labeling", str(labeling), "-"],
        input="##\n",
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["valid"] is True and payload["length"] == 2000


def _run_module(argv, extra_env=None, stdin="##\n"):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", **(extra_env or {})}
    return subprocess.run(
        [sys.executable, "-m", "polyomino_ideals", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_ugb_check_rejects_negative_orders():
    proc = _run_module(["ugb-check", "--orders", "-1", "-"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "permutations=-1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_ugb_check_rejects_orders_above_the_maximum(monkeypatch):
    # a usage error raised before any order of the sample is built
    built = []
    monkeypatch.setattr(cli, "order_sample", lambda *a, **k: built.append(a) or [])
    proc = _run_module(["ugb-check", "--orders", str(cli.MAX_ORDERS + 1), "-"])
    assert proc.returncode == 1
    assert proc.stderr == f"error: --orders is at most {cli.MAX_ORDERS}, got {cli.MAX_ORDERS + 1}\n"
    assert proc.stdout == ""
    with pytest.raises(ValueError, match=f"at most {cli.MAX_ORDERS}"):
        cli._ugb_check(None, argparse.Namespace(orders=cli.MAX_ORDERS + 1, seed=0))
    assert built == []


def test_cli_census_rejects_max_cells_above_the_maximum(monkeypatch):
    # a usage error raised before any enumeration; 13 cells or more are
    # never enumerated here
    assert cli.MAX_CENSUS_CELLS == 13
    enumerated = []
    monkeypatch.setattr(cli, "free_polyominoes", lambda n: enumerated.append(n) or {})
    proc = _run_module(["census", "--max-cells", "14"])
    assert proc.returncode == 1
    assert proc.stderr == "error: --max-cells is at most 13, got 14\n"
    assert proc.stdout == ""
    with pytest.raises(ValueError, match="at most 13, got 14"):
        cli._census(argparse.Namespace(max_cells=14, format="text"))
    assert main(["census", "--max-cells", "14"]) == 1
    assert enumerated == []


@pytest.mark.parametrize("raw", ["-5", "0", "abc"])
def test_cli_rejects_bad_step_limit_env(raw):
    proc = _run_module(["prime", "-"], {"POLYIDEAL_GB_STEP_LIMIT": raw})
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "POLYIDEAL_GB_STEP_LIMIT" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "polyomino_ideals", "classify", "--format", "json", "-"],
        input="##\n",
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["row_convex"] is True


# The ten subcommands that print a report, with the arguments a domino run
# needs besides the grid; certify-treelike also needs a --labeling file.
REPORT_ARGS = {
    "parse": [],
    "classify": [],
    "ideal": [],
    "groebner": [],
    "balanced": [],
    "prime": [],
    "dimension": [],
    "cycles": ["--primitive"],
    "ugb-check": ["--orders", "1"],
    "certify-treelike": [],
}
DOMINO_LABELING = "0 0 1\n1 1 1\n0 1 -1\n1 0 -1\n"


def _with_labeling(argv, tmp_path, labeling):
    if labeling is None:
        return argv
    path = tmp_path / "labeling.txt"
    path.write_text(labeling)
    return [*argv, "--labeling", str(path)]


def _labeling_for(command):
    return DOMINO_LABELING if command == "certify-treelike" else None


@pytest.mark.parametrize("command", REPORT_ARGS)
def test_cli_report_contract(capsys, tmp_path, command):
    grid = tmp_path / "p2.txt"
    grid.write_text("##\n")
    argv = _with_labeling([command, *REPORT_ARGS[command]], tmp_path, _labeling_for(command))
    code, out, _ = run_cli(capsys, [*argv, str(grid), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == {"balanced": 2, "groebner": 2, "ugb-check": 3}.get(command, 1)
    assert payload["command"] == command
    assert list(payload)[:2] == ["schema", "command"] and list(payload)[-1] == "timings"
    seconds = payload["timings"]["seconds"]
    assert isinstance(seconds, float) and seconds >= 0


def test_cli_census_report_contract(capsys):
    code, out, _ = run_cli(capsys, ["census", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["schema", "command", "max_cells", "shapes", "counterexamples", "timings"]
    assert payload["schema"] == 1 and payload["command"] == "census"
    assert payload["max_cells"] == 6
    assert payload["shapes"] == {"1": 1, "2": 1, "3": 2, "4": 5, "5": 12, "6": 35}
    assert payload["counterexamples"] == []
    seconds = payload["timings"]["seconds"]
    assert isinstance(seconds, float) and seconds >= 0


def test_readme_names_every_subcommand():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Subcommands:(.*?`)\.", readme, re.DOTALL).group(1)
    named = [item.split()[0] for item in re.findall(r"`([^`]*)`", sentence)]
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    assert sorted(named) == sorted(subparsers.choices)


def _malformed_cases():
    for command, extra in REPORT_ARGS.items():
        argv = [command, *extra, "-"]
        yield pytest.param(argv, "#x\n", _labeling_for(command), "error: unexpected character",
                           id=f"{command}-bad-character")
        yield pytest.param(argv, "#.\n.#\n", _labeling_for(command), "error: cells do not form",
                           id=f"{command}-disconnected")
    yield pytest.param(["certify-treelike", "-"], "##\n", "0 0 7\n" + DOMINO_LABELING,
                       "error: labeling line 2: vertex (0, 0) listed twice\n",
                       id="certify-treelike-vertex-twice")
    yield pytest.param(["certify-treelike", "-"], "##\n", "0 0 1\n1 1 x\n",
                       "error: labeling line 2: expected integers 'i j value', got '1 1 x'\n",
                       id="certify-treelike-not-an-integer")
    for name, text, message in (
        ("empty-object", "{}", "render input must be a list"),
        ("number", "5", "render input must be a list"),
        ("null", "[[0,0],[0,null]]", "cell 1 is [0, null], not an integer pair"),
        ("bool", "[[0,0],[true,0]]", "cell 1 is [true, 0], not an integer pair"),
        ("float", "[[0,0],[0,1.7]]", "cell 1 is [0, 1.7], not an integer pair"),
        ("not-json", "[[0,0]", "error: Expecting"),
    ):
        yield pytest.param(["render", "-"], text, None, message, id=f"render-{name}")
    yield pytest.param(["groebner", "--order", "lex:perm=1,0", "-"], "##\n", None,
                       "error: perm must be a permutation", id="groebner-bad-order")
    yield pytest.param(["groebner", "--order", "lex:perm=a", "-"], "##\n", None,
                       "error: order option perm='a' is not a list of integers\n",
                       id="groebner-order-not-an-integer")
    yield pytest.param(["census", "--max-cells", "0"], "", None,
                       "error: max_cells must be at least 1", id="census-no-cells")
    # argparse's usage errors exit 1 too: 2 is the census's counterexample
    for argv, message, name in (
        (["certify-treelike", "-"], "required: --labeling", "certify-treelike-no-labeling"),
        (["census", "--max-cells", "x"], "argument --max-cells: invalid int value", "census-bad-int"),
        (["cycles", "--max-vertices", "y", "-"], "argument --max-vertices: invalid int value",
         "cycles-bad-int"),
        (["frobnicate"], "invalid choice: 'frobnicate'", "unknown-subcommand"),
        (["render", "--format", "json"], "unrecognized arguments: --format", "render-format"),
    ):
        yield pytest.param(argv, "##\n", None, message, id=f"usage-{name}")


@pytest.mark.parametrize("argv, stdin, labeling, message", _malformed_cases())
def test_cli_malformed_input_without_traceback(tmp_path, argv, stdin, labeling, message):
    proc = _run_module(_with_labeling(argv, tmp_path, labeling), stdin=stdin)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
