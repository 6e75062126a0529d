import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rootatlas.classify import admissible_irreducible_types
from rootatlas.cli import run
from rootatlas.rootsys import CartanTypeError, build_root_system, parse_cartan_type
from time_limit import time_limit


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_tensor_text(capsys):
    assert run(["tensor", "A1", "2", "1"]) == 0
    assert capsys.readouterr().out == "3:1, 1:1\n"


def test_tensor_json(capsys):
    assert run(["tensor", "A2", "1,1", "1,1", "--format", "json"]) == 0
    data = _json_out(capsys)
    assert data["factors"] == [[1, 1], [1, 1]]
    assert {tuple(d["weight"]): d["multiplicity"] for d in data["decomposition"]} == {
        (2, 2): 1,
        (3, 0): 1,
        (0, 3): 1,
        (1, 1): 2,
        (0, 0): 1,
    }


def test_dim_text_is_bare_number(capsys):
    assert run(["dim", "B3", "0,0,1"]) == 0
    assert capsys.readouterr().out == "8\n"


def test_dim_json(capsys):
    assert run(["dim", "G2", "1,0", "--format", "json"]) == 0
    assert _json_out(capsys)["dimension"] == 7


def test_roots_counts(capsys):
    assert run(["roots", "F4", "--format", "json"]) == 0
    data = _json_out(capsys)
    assert data["root_count"] == 48
    assert len(data["positive_roots"]) == 24
    assert all(d["height"] >= 1 for d in data["positive_roots"])


def test_roots_text(capsys):
    assert run(["roots", "A1"]) == 0
    out = capsys.readouterr().out
    assert "root count: 2" in out
    assert "  2  height 1  norm 1" in out


def test_weights_text(capsys):
    assert run(["weights", "A2", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 8" in out
    assert "  1,1: 1" in out
    assert "  0,0: 2" in out


def test_grade_json(capsys):
    assert run(["grade", "A2", "--bound", "2", "--format", "json"]) == 0
    data = _json_out(capsys)
    assert data["invariant_factors"] == [3]
    assert data["free_rank"] == 0
    assert data["matches_fundamental_group"] is True
    assert [0, 0] in [c["weight"] for c in data["class_map"]]
    assert data["relation_count"] > 0


def test_grade_weight_class(capsys):
    assert run(["grade", "A3", "1,0,0"]) == 0
    assert capsys.readouterr().out == "class: 3 in Z/4\n"
    assert run(["grade", "A3", "0,1,0", "--format", "json"]) == 0
    data = _json_out(capsys)
    assert data["class"] == [2]
    assert data["group"] == [4]


def test_grade_weight_class_trivial_group(capsys):
    assert run(["grade", "G2", "1,0"]) == 0
    assert "trivial" in capsys.readouterr().out


def test_grade_class_additive(capsys):
    assert run(["grade", "A2", "1,1", "--format", "json"]) == 0
    assert _json_out(capsys)["class"] == [0]


def test_equiv_found(capsys):
    assert run(["equiv", "A1", "0", "2", "--format", "json"]) == 0
    data = _json_out(capsys)
    assert data["equivalent"] is True
    assert data["word"] == [[1], [1]]


def test_equiv_not_found_still_exits_zero(capsys):
    assert run(["equiv", "A1", "0", "1", "--format", "json"]) == 0
    data = _json_out(capsys)
    assert data["equivalent"] is False
    assert data["word"] is None


def test_classify_json(capsys):
    assert run(["classify", "A3", "--format", "json"]) == 0
    data = _json_out(capsys)
    assert data["fundamental_group"] == [4]
    assert [d["center"] for d in data["diagrams"]] == [[4], [2], []]
    assert data["isogeny_edges"] == [[0, 1], [1, 2]]
    assert data["components"] == [
        {"type": "A3", "nodes": [1, 3], "fundamental_group": [4]}
    ]


def test_classify_product(capsys):
    assert run(["classify", "A1xA2", "--format", "json"]) == 0
    data = _json_out(capsys)
    assert data["fundamental_group"] == [6]
    assert [c["type"] for c in data["components"]] == ["A1", "A2"]
    assert [c["nodes"] for c in data["components"]] == [[1, 1], [2, 3]]


def test_classify_d4_note(capsys):
    assert run(["classify", "D4"]) == 0
    out = capsys.readouterr().out
    assert "triality" in out
    assert out.count("intermediate#") >= 3


def test_classify_a3_text_has_no_note(capsys):
    assert run(["classify", "A3"]) == 0
    assert "note:" not in capsys.readouterr().out


def test_atlas_json(capsys):
    assert run(["atlas", "--max-rank", "2", "--bound", "2", "--format", "json"]) == 0
    data = _json_out(capsys)
    assert [e["type"] for e in data["entries"]] == ["A1", "A2", "B2", "C2", "G2"]
    assert data["parameters"]["max_rank"] == 2
    for entry in data["entries"]:
        assert entry["error"] is None
        assert entry["grading"]["matches_fundamental_group"] is True


def test_atlas_deterministic(capsys):
    assert run(["atlas", "--max-rank", "2", "--bound", "2", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["atlas", "--max-rank", "2", "--bound", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_atlas_text(capsys):
    assert run(["atlas", "--max-rank", "2", "--bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "atlas: max rank 2, grading bound 2" in out
    assert "G2" in out and "matches: yes" in out


def test_bad_type_exits_2(capsys):
    assert run(["roots", "D3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_weight_exits_2(capsys):
    assert run(["dim", "A2", "1"]) == 2
    assert "expected 2" in capsys.readouterr().err


_A400_ZERO = ",".join(["0"] * 400)


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "A400", "1"],
        ["weights", "A400", "1"],
        ["tensor", "A400", _A400_ZERO, "1"],
        ["grade", "A400", "1"],
        ["equiv", "A400", "1", _A400_ZERO],
    ],
)
def test_bad_weight_is_refused_before_the_root_system_is_built(capsys, argv):
    # building A400's 160,400 roots takes far longer than the refusal
    before = build_root_system.cache_info()
    assert run(argv) == 2
    after = build_root_system.cache_info()
    assert after.misses == before.misses
    assert "has 1 coordinates, expected 400" in capsys.readouterr().err


def test_non_dominant_weight_exits_2(capsys):
    assert run(["dim", "A2", "-1,0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_grade_negative_weight_is_positional(capsys):
    assert run(["grade", "A2", "-1,0"]) == 0
    assert capsys.readouterr().out == "class: 1 in Z/3\n"


@pytest.mark.parametrize(
    "argv, escaped",
    [
        ("grade A2 -1,0", "grade A2 -- -1,0"),
        ("grade A2 -1,0 --format json", "grade --format json A2 -- -1,0"),
        ("grade A1 -3", "grade A1 -- -3"),
        ("weights A2 -1,0", "weights A2 -- -1,0"),
        ("dim A2 -1,2 --format json", "dim --format json A2 -- -1,2"),
        ("tensor A2 -1,0 1,0", "tensor A2 -- -1,0 1,0"),
        ("tensor A2 1,0 -2,1", "tensor A2 1,0 -- -2,1"),
        ("equiv A2 1,0 -1,-1 --bound 1", "equiv A2 --bound 1 1,0 -- -1,-1"),
    ],
)
def test_negative_weight_reads_as_after_double_dash(capsys, argv, escaped):
    code = run(argv.split())
    first = capsys.readouterr()
    assert run(escaped.split()) == code
    assert capsys.readouterr() == first
    assert "unrecognized arguments" not in first.err


@pytest.mark.parametrize(
    "argv, working",
    [
        ("grade A2 --format json 1,0", "grade --format json A2 1,0"),
        ("grade A2 --bound 2 1,0", "grade A2 1,0 --bound 2"),
        ("grade A2 --format json -- -1,0", "grade --format json A2 -- -1,0"),
    ],
)
def test_grade_weight_after_option(capsys, argv, working):
    assert run(working.split()) == 0
    expected = capsys.readouterr()
    assert run(argv.split()) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize(
    "argv, rest",
    [
        ("grade A2 --bound 2 1,0 2,0", "1,0 2,0"),
        ("grade A2 1,0 --bound 2 2,0", "2,0"),
        ("grade A2 --format json -x", "-x"),
        ("dim A2 --format json 1,0 2,0", "2,0"),
    ],
)
def test_extra_arguments_still_rejected(capsys, argv, rest):
    assert run(argv.split()) == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {rest}\n")


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rootatlas", "grade", "--format", "json", "A2", "1,0"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141


def test_enumeration_cap_exits_1(capsys):
    big = "x".join(["A1"] * 7)
    assert run(["classify", big]) == 1
    assert "enumeration cap" in capsys.readouterr().err


def test_flag_validation_exits_2(capsys):
    # the CLI's own check runs before the library's, so it names the flag
    for argv, message in [
        (["equiv", "A1", "0", "2", "--depth", "0"], "--depth must be at least 1"),
        (["grade", "A2", "--bound", "-1"], "--bound must be at least 0"),
        (["atlas", "--max-rank", "0"], "--max-rank must be at least 1"),
        (["atlas", "--bound", "-1"], "--bound must be at least 0"),
        (["atlas", "--enumeration-cap", "0"], "--enumeration-cap must be at least 1"),
        (["atlas", "--grading-dim-cap", "0"], "--grading-dim-cap must be at least 1"),
    ]:
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_missing_command_exits_2(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "roots" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["roots", "weights", "dim", "tensor"])
def test_subcommand_help(capsys, verb):
    assert run([verb, "--help"]) == 0
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rootatlas", "dim", "A1", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


def _readme_commands():
    """The ``rootatlas ...`` lines of README's command-line block, each as
    arguments and comment, named by the arguments."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        args = command.split()[1:]
        lines.append(pytest.param(args, comment.strip(), id=" ".join(args)))
    return lines


@pytest.mark.parametrize("args,comment", _readme_commands())
def test_readme_command_line_examples(capsys, args, comment):
    assert run(args) == 0
    out = capsys.readouterr().out
    # the comment of a dim or tensor line is its exact output
    if args[0] in ("dim", "tensor"):
        assert out == comment + "\n"


# the CLI fuzz guard's grammar: every type of rank <= 4, a few products and
# a few malformed types; weights that are valid, negative, of the wrong
# length or malformed; each flag at its limit, below it and above it
FUZZ_TYPES = [str(t) for t in admissible_irreducible_types(4)] + [
    "A1xA1", "A1xB2", "G2xA1", "A2xA2", "A1xA1xA1",
]
FUZZ_BAD_TYPES = ["A0", "E9", "D3", "b2", "A1x", "Q2", ""]
FUZZ_FLAGS = {
    "--bound": ["-1", "0", "1", "1"],
    "--depth": ["0", "1", "2", "2"],
    "--max-rank": ["0", "1", "2", "2"],
    "--enumeration-cap": ["0", "1", "64", "64"],
    "--grading-dim-cap": ["0", "1", "20000000", "20000000"],
}
# each verb's number of weights (None: it takes no type) and its flags
FUZZ_VERBS = {
    "roots": (0, []),
    "weights": (1, []),
    "dim": (1, []),
    "tensor": (2, []),
    "grade": (1, ["--bound"]),
    "equiv": (2, ["--bound", "--depth"]),
    "classify": (0, ["--enumeration-cap"]),
    "atlas": (None, ["--max-rank", "--bound", "--enumeration-cap", "--grading-dim-cap"]),
}


def _rank(type_text):
    """The rank of a well-formed type, or 2 for a malformed one."""
    try:
        return parse_cartan_type(type_text).rank
    except CartanTypeError:
        return 2


def _fuzz_weight(rng, rank):
    kind = rng.choice(["valid", "valid", "valid", "negative", "length", "malformed"])
    if kind == "malformed":
        return rng.choice(["", ",", "1,,0", "a", "1.5", "--1", "1_0", "0x1"])
    if kind == "length":
        rank += rng.choice([-1, 1]) if rank > 1 else 1
    coords = [0] * rank
    # coordinate sum at most 2, so that every product stays small
    for _ in range(rng.randint(0, 2)):
        coords[rng.randrange(rank)] += 1
    if kind == "negative":
        coords[rng.randrange(rank)] = -rng.randint(1, 2)
    return ",".join(map(str, coords))


def _fuzz_argv(rng):
    verb = rng.choice(sorted(FUZZ_VERBS))
    weights, flags = FUZZ_VERBS[verb]
    argv = [verb]
    if weights is not None:
        type_text = rng.choice(FUZZ_TYPES * 4 + FUZZ_BAD_TYPES)
        argv.append(type_text)
        # grade presents the whole grading group when its weight is left out
        if verb == "grade" and rng.random() < 0.5:
            weights = 0
        argv += [_fuzz_weight(rng, _rank(type_text)) for _ in range(weights)]
    # every flag is given: a default bound or rank runs for seconds
    for flag in flags:
        argv += [flag, rng.choice(FUZZ_FLAGS[flag])]
    if rng.random() < 0.5:
        argv += ["--format", "json"]
    return argv


def test_cli_fuzz_guard(capsys):
    # seeded argv over every verb: each must exit 0, 1 or 2 in time, with
    # its output on stdout or its error on stderr, and raise nothing else
    rng = random.Random(1)
    # first a product on each type, so that each runs the reflection kernels
    draws = [
        ["tensor", t, ",".join("1" * _rank(t)), ",".join("0" * _rank(t))]
        for t in FUZZ_TYPES
    ]
    draws.append(["dim", "A400", "1"])
    draws += [_fuzz_argv(rng) for _ in range(500)]
    for argv in draws:
        with time_limit(5):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert out if code == 0 else err, argv
