import argparse
import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from quasicirc import (
    BudgetExceeded,
    LinearMap,
    Polynomial,
    WeightVector,
    bergman,
    cli,
    format_polynomial,
    make_sigma,
    random_sigma,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(capsys, golden_name, *argv):
    expected = (GOLDEN / golden_name).read_text(encoding="utf-8")
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert out_a == out_b, "rerun is not byte-identical"
    assert out_a == expected
    return code_a, out_a


GOLDEN_CASES = [
    ("resonance_12.json", 0, ("resonance", "--weights", "1,2")),
    ("resonance_123_index3.json", 0, ("resonance", "--weights", "1,2,3", "--index", "3")),
    ("partition_1223.json", 0, ("partition", "--weights", "1,2,2,3")),
    ("sigma_random_124_seed7.json", 0, ("sigma", "random", "--weights", "1,2,4", "--seed", "7")),
    ("sigma_invert_124.json", 0, ("sigma", "invert", "--map", str(DATA / "sigma_124.json"))),
    (
        "conjugate_diag.json",
        0,
        (
            "conjugate", "--weights", "1,2",
            "--sigma", str(DATA / "sigma_12.json"),
            "--linear", str(DATA / "linear_diag23.json"),
        ),
    ),
    (
        "conjugate_offblock.json",
        0,
        (
            "conjugate", "--weights", "1,2",
            "--sigma", str(DATA / "sigma_12.json"),
            "--linear", str(DATA / "linear_offblock.json"),
        ),
    ),
    (
        "conjugate_mixing_124.json",
        0,
        (
            "conjugate", "--weights", "1,2,4",
            "--sigma", str(DATA / "sigma_124.json"),
            "--linear", str(DATA / "linear_mixing_124.json"),
        ),
    ),
    (
        "violate_found.json",
        0,
        (
            "violate", "--weights", "1,2",
            "--linear", str(DATA / "linear_offblock.json"),
            "--trials", "8", "--seed", "3",
        ),
    ),
    (
        "violate_absent.json",
        0,
        (
            "violate", "--weights", "2,3",
            "--linear", str(DATA / "linear_offblock.json"),
            "--trials", "4", "--seed", "1",
        ),
    ),
    ("quasi_order_12.json", 0, ("quasi-order", "--weights", "1,2", "--trials", "16", "--seed", "1")),
    ("solve_12.json", 0, ("solve", "--weights", "1,2", "--map", str(DATA / "map_solvable.txt"))),
    ("bergman_122.json", 0, ("bergman", "--weights", "1,2,2")),
    ("error_notcoprime.json", 1, ("resonance", "--weights", "2,4")),
]


@pytest.mark.parametrize("golden_name,expected_code,argv", GOLDEN_CASES,
                         ids=[case[0] for case in GOLDEN_CASES])
def test_golden_outputs(capsys, golden_name, expected_code, argv):
    code, _ = assert_golden(capsys, golden_name, *argv)
    assert code == expected_code


ERROR_CASES = [
    ("NonPositiveWeight", ("resonance", "--weights", "0,1")),
    ("Unsorted", ("resonance", "--weights", "2,1")),
    ("NotCoprime", ("resonance", "--weights", "2,4")),
    ("IndexOutOfRange", ("resonance", "--weights", "1,2", "--index", "5")),
    (
        "DimensionMismatch",
        (
            "conjugate", "--weights", "1,2",
            "--sigma", str(DATA / "sigma_12.json"),
            "--linear", str(DATA / "linear_id3.json"),
        ),
    ),
    ("DoesNotFixOrigin", ("solve", "--weights", "1,2", "--map", str(DATA / "map_constant.txt"))),
    ("NotResonant", ("sigma", "invert", "--map", str(DATA / "sigma_bad_resonant.json"))),
    ("NotNonlinear", ("sigma", "invert", "--map", str(DATA / "sigma_bad_linear.json"))),
    ("EmptyPool", ("sigma", "random", "--weights", "1,2", "--seed", "1", "--pool=")),
    (
        "WeightMismatch",
        (
            "conjugate", "--weights", "1,2",
            "--sigma", str(DATA / "sigma_13.json"),
            "--linear", str(DATA / "linear_diag23.json"),
        ),
    ),
    (
        "SingularLinearMap",
        (
            "conjugate", "--weights", "1,2",
            "--sigma", str(DATA / "sigma_12.json"),
            "--linear", str(DATA / "linear_singular.json"),
        ),
    ),
    (
        "BlockDiagonalInput",
        (
            "violate", "--weights", "1,2",
            "--linear", str(DATA / "linear_diag23.json"),
            "--trials", "4", "--seed", "1",
        ),
    ),
    ("SingularLinearPart", ("solve", "--weights", "1,2", "--map", str(DATA / "map_singular.txt"))),
    ("NoResonantConjugacy", ("solve", "--weights", "1,2", "--map", str(DATA / "map_unsolvable.txt"))),
]


@pytest.mark.parametrize("error_name,argv", ERROR_CASES, ids=[case[0] for case in ERROR_CASES])
def test_every_error_name_reachable(capsys, error_name, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": error_name}
    assert err  # a human-readable diagnostic accompanies the payload


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "resonance")[0] == 2  # missing --weights
    assert run_cli(capsys, "resonance", "--weights", "a,b")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_malformed_files_exit_two(capsys):
    code, out, err = run_cli(
        capsys, "sigma", "invert", "--map", str(DATA / "sigma_malformed.json")
    )
    assert code == 2 and not out and err
    code, out, err = run_cli(
        capsys, "solve", "--weights", "1,2", "--map", str(DATA / "map_malformed.txt")
    )
    assert code == 2 and not out and err
    code, out, err = run_cli(capsys, "sigma", "invert", "--map", "no/such/file.json")
    assert code == 2 and not out and err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no limit on int-string conversion")
def test_overlong_numeral_in_map_exits_two(capsys, tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("1" * (sys.get_int_max_str_digits() + 1) + " z1\nz2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--weights", "1,2", "--map", str(path))
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.fixture
def int_string_limit():
    """CPython's default int-string limit, whatever the environment set."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no limit on int-string conversion")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


def test_overlong_result_is_a_budget_error(capsys, tmp_path, int_string_limit):
    # a valid input whose conjugate squares a 3000-digit coefficient
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps({"weights": [1, 2], "g": {"2": {"2,0": "7" * 3000}}}))
    code, out, err = run_cli(capsys, "conjugate", "--weights", "1,2", "--sigma", str(sigma),
                             "--linear", str(DATA / "linear_offblock.json"))
    assert code == 1 and json.loads(out) == {"error": "BudgetExceeded"}
    assert err.startswith("error: ") and "Traceback" not in err
    # the block-diagonal conjugate keeps degree 2 and prints
    code, out, _ = run_cli(capsys, "conjugate", "--weights", "1,2", "--sigma", str(sigma),
                           "--linear", str(DATA / "linear_diag23.json"))
    assert code == 0 and "7" * 3000 in out


def test_every_output_path_names_the_budget_error(int_string_limit):
    huge = 10 ** (int_string_limit + 1)
    with pytest.raises(BudgetExceeded):
        format_polynomial(Polynomial(2, {(1, 0): huge}))
    with pytest.raises(BudgetExceeded):
        make_sigma(WeightVector((1, 2)), {(2, (2, 0)): huge}).to_json_dict()
    with pytest.raises(BudgetExceeded):
        LinearMap(((huge, 0), (0, 1))).to_string_rows()
    for payload in ({"value": huge}, [[huge, 1]], [1, "a", huge]):
        with pytest.raises(BudgetExceeded):
            cli._dumps(payload)


MALFORMED_VALUE_CASES = [
    ("sigma_zero_denominator", "sigma", {"weights": [1, 2], "g": {"2": {"2,0": "1/0"}}}),
    ("sigma_float_coefficient", "sigma", {"weights": [1, 2], "g": {"2": {"2,0": 1.5}}}),
    ("sigma_null_coefficient", "sigma", {"weights": [1, 2], "g": {"2": {"2,0": None}}}),
    ("sigma_float_weight", "sigma", {"weights": [1.5, 2], "g": {}}),
    ("linear_zero_denominator", "linear", [["1/0"]]),
    ("linear_string_rows", "linear", ["12", "34"]),
    ("sigma_boolean_weight", "sigma", {"weights": [True, 2], "g": {}}),
    ("sigma_boolean_coefficient", "sigma", {"weights": [1, 2], "g": {"2": {"2,0": True}}}),
    ("linear_boolean_entries", "linear", [[True, False], [False, True]]),
]


@pytest.mark.parametrize("kind,content", [case[1:] for case in MALFORMED_VALUE_CASES],
                         ids=[case[0] for case in MALFORMED_VALUE_CASES])
def test_malformed_values_exit_two(capsys, tmp_path, kind, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    if kind == "sigma":
        argv = ("sigma", "invert", "--map", str(path))
    else:
        argv = ("violate", "--weights", "1,2", "--linear", str(path),
                "--trials", "1", "--seed", "1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_sigma_invert_is_an_involution(capsys, tmp_path):
    code, first, _ = run_cli(capsys, "sigma", "random", "--weights", "1,2,4", "--seed", "9")
    assert code == 0
    stage1 = tmp_path / "sigma.json"
    stage1.write_text(first, encoding="utf-8")
    code, inverted, _ = run_cli(capsys, "sigma", "invert", "--map", str(stage1))
    assert code == 0
    stage2 = tmp_path / "inverse.json"
    stage2.write_text(inverted, encoding="utf-8")
    code, back, _ = run_cli(capsys, "sigma", "invert", "--map", str(stage2))
    assert code == 0
    assert back == first


def test_sigma_invert_high_exponent(capsys, tmp_path):
    # a valid map whose exponent is above the default recursion limit
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"weights": [1, 1500], "g": {"2": {"1500,0": "1"}}}))
    code, out, err = run_cli(capsys, "sigma", "invert", "--map", str(path))
    assert code == 0
    assert json.loads(out)["g"] == {"2": {"1500,0": "-1"}}
    assert err == ""


def test_solve_map_with_one_high_degree_term(capsys, tmp_path):
    # no conjugate at weights (1, 1) has degree above 1
    path = tmp_path / "map.txt"
    path.write_text("z1 + z1^100000\nz2\n")
    code, out, err = run_cli(capsys, "solve", "--weights", "1,1", "--map", str(path))
    assert (code, json.loads(out)) == (1, {"error": "NoResonantConjugacy"})


def test_custom_pool_flag(capsys):
    code, out, _ = run_cli(
        capsys, "sigma", "random", "--weights", "1,2", "--seed", "1", "--pool=1"
    )
    assert code == 0
    assert json.loads(out)["g"] == {"2": {"2,0": "1"}}


def test_module_entry_point_matches_in_process():
    result = subprocess.run(
        [sys.executable, "-m", "quasicirc", "partition", "--weights", "1,2,2,3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "partition_1223.json").read_text(encoding="utf-8")


def test_parser_is_reused_across_runs(capsys):
    assert cli.build_parser() is cli.build_parser()
    for cases in (GOLDEN_CASES, GOLDEN_CASES[::-1]):
        for golden_name, expected_code, argv in cases:
            code, out, _ = run_cli(capsys, *argv)
            assert code == expected_code
            assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")
        assert run_cli(capsys, "resonance", "--weights", "a,b")[:2] == (2, "")
        code, out, _ = run_cli(
            capsys, "sigma", "random", "--weights", "1,2", "--seed", "1", "--pool=1,2"
        )
        assert code == 0
        assert json.loads(out)["g"]["2"]["2,0"] in ("1", "2")


def test_bergman_lists_each_degree_once(monkeypatch):
    listed = Counter()
    weighted_exponents = bergman.weighted_exponents

    def counting(weights, target):
        listed[target] += 1
        return weighted_exponents(weights, target)

    monkeypatch.setattr(bergman, "weighted_exponents", counting)
    payload = cli.cmd_bergman(argparse.Namespace(weights=(1, 1, 1, 1, 1, 20)))
    assert len(payload["admissible"][5][0]) == 8855
    assert listed[19] == 1
    assert set(listed.values()) == {1}


def test_resonance_on_many_variables(capsys):
    code, out, err = run_cli(capsys, "resonance", "--weights", ",".join(["1"] * 1200),
                             "--index", "1")
    assert (code, err) == (0, "")
    exponents = json.loads(out)["set"]
    assert len(exponents) == 1200
    assert exponents == sorted(
        [int(k == j) for k in range(1200)] for j in range(1200)
    )


@st.composite
def int_rows(draw):
    """A list or tuple of int rows; lengths may differ, a bool or float may intrude."""
    entries = st.integers() | st.integers(-2**80, 2**80)
    if draw(st.booleans()):
        entries |= draw(st.sampled_from([st.booleans(), st.floats()]))
    k = draw(st.integers(0, 4))
    sizes = {"min_size": k, "max_size": k} if draw(st.booleans()) else {"max_size": 4}
    row = st.lists(entries, **sizes) | st.lists(entries, **sizes).map(tuple)
    return draw(st.lists(row, max_size=5) | st.lists(row, max_size=5).map(tuple))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
    | st.floats() | st.text() | st.sampled_from(["", "é", '"\\\n\t\x00', "\u2028"])
    | int_rows(),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text() | st.integers() | st.booleans() | st.none(), children),
    max_leaves=12,
)


def shared_listings(rows):
    """One row listing held by several values, at one depth and at others."""
    return {"a": rows, "b": rows, "c": [rows, {"d": rows}], "e": [[rows]]}


@given(int_rows() | JSON_VALUES | int_rows().map(shared_listings))
def test_dumps_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


class WriteLengths(io.TextIOBase):
    """A stdout that keeps only the length of each write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return len(text)


def test_large_listing_is_written_in_pieces():
    # every one of the n resonance sets of (1, ..., 1) is the same n units,
    # so the output grows as n^3 while the library holds one listing
    n = 100
    units = [[int(k == j) for k in range(n)] for j in reversed(range(n))]
    payload = {
        "weights": [1] * n,
        "sets": {str(i): units for i in range(1, n + 1)},
        "orders": {str(i): 1 for i in range(1, n + 1)},
        "mu": 1,
    }
    total = len(json.dumps(payload, indent=2)) + 1
    out = WriteLengths()
    tracemalloc.start()
    try:
        with redirect_stdout(out):
            code = cli.run(["resonance", "--weights", ",".join(["1"] * n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sum(out.lengths) == total
    assert max(out.lengths) < total / 10
    assert peak < total


# fuzzing cli.run: small argv and file contents, malformed ones included.
# Sizes are bounded so that every run is quick; resource budgets are not
# covered here.


def mostly(good, bad):
    """good seven times in eight, bad otherwise (`one_of` would merge repeated branches)."""
    return st.sampled_from([False] * 7 + [True]).flatmap(lambda odd: bad if odd else good)


SMALL_INT = st.integers(-2, 6)
VALID_WEIGHTS = st.lists(st.integers(1, 4), max_size=2).map(lambda rest: (1, *sorted(rest)))
BAD_WEIGHT_TEXT = st.sampled_from(["", "a", "1,,2", "1.5", "0,1", "-1,2", "2,1", "2,4"])
COEFF = st.sampled_from(["1", "-2", "1/3", "-3/2", "2/4"]) | SMALL_INT
BAD_COEFF = st.sampled_from(["1/0", "x", "", True, 0.5, None, [1]])


def poly_line(n):
    """Terms in z1..zn joined by minus signs, or a malformed line."""
    term = st.tuples(
        st.sampled_from(["", "2 ", "1/3 ", "3/2*", "0 "]),
        st.lists(st.tuples(st.integers(1, n), st.integers(0, 3)), max_size=2),
    ).map(lambda t: t[0] + " ".join(f"z{j}^{e}" for j, e in t[1]) or "1")
    return mostly(
        st.lists(term, min_size=1, max_size=3).map(" - ".join),
        st.sampled_from(["", "+", "z", "z1^", "3 $ z1", "z1 z2 -", "1/0 z1", "z9"]),
    )


def map_text(n):
    """n lines: a diagonal linear map, or z_i plus random terms; or any lines."""
    diagonal = st.tuples(*[st.sampled_from(["2", "1/3", "-3/2"]).map(lambda c, i=i: f"{c} z{i}")
                           for i in range(1, n + 1)])
    near_identity = st.tuples(*[poly_line(n).map(lambda line, i=i: f"z{i} + {line}")
                                for i in range(1, n + 1)])
    return mostly((diagonal | near_identity).map("\n".join),
                  st.lists(poly_line(n), max_size=3).map("\n".join))


def sigma_object(m):
    """A sampled map for m, or an object of the same shape with any values, or any JSON."""
    sampled = st.builds(lambda seed, pool: random_sigma(WeightVector(m), seed, pool).to_json_dict(),
                        st.integers(0, 3), st.sampled_from([(1, 2), (Fraction(1, 3), Fraction(-3, 2))]))
    exponent = st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(lambda a: ",".join(map(str, a)))
    shaped = st.fixed_dictionaries({
        "weights": st.lists(SMALL_INT | st.sampled_from([True, 1.5, "2"]), max_size=3),
        "g": st.dictionaries(st.sampled_from(["1", "2", "3", "0", "x"]),
                             st.dictionaries(exponent | st.sampled_from(["", "a"]), COEFF | BAD_COEFF),
                             max_size=2),
    })
    return mostly(sampled, shaped | JSON_VALUES)


def matrix(n):
    square = st.lists(st.lists(COEFF, min_size=n, max_size=n), min_size=n, max_size=n)
    return mostly(square, st.lists(st.lists(COEFF | BAD_COEFF, max_size=3), max_size=3))


def json_file(content):
    return mostly(content.map(json.dumps), st.sampled_from(["", "{", "[[1, 2]", "null", "\x00"]))


FUZZ_COMMANDS = ("resonance", "partition", "sigma random", "sigma invert", "conjugate",
                 "violate", "quasi-order", "solve", "bergman")


@st.composite
def cli_invocations(draw, command):
    """(argv, {file name: content}) for one subcommand, flags sometimes missing or bad."""
    m = draw(VALID_WEIGHTS)
    weights = ["--weights", draw(mostly(st.just(",".join(map(str, m))), BAD_WEIGHT_TEXT))]
    files = {
        "map.txt": draw(map_text(len(m))),
        "sigma.json": draw(json_file(sigma_object(m))),
        "linear.json": draw(json_file(matrix(len(m)))),
    }
    seed = ["--seed", str(draw(SMALL_INT))]
    trials = ["--trials", draw(mostly(st.sampled_from(["1", "2"]), st.sampled_from(["0", "x"])))]
    sigma_file = draw(mostly(st.just("sigma.json"), st.sampled_from(["linear.json", "missing.json"])))
    linear_file = draw(mostly(st.just("linear.json"), st.sampled_from(["sigma.json", "missing.json"])))
    options = {
        "resonance": [*weights, *draw(st.sampled_from([[], ["--index", "1"], ["--index", "5"]]))],
        "partition": weights,
        "sigma random": [*weights, *seed, *draw(mostly(
            st.sampled_from([[], ["--pool=1/3,-3/2"]]), st.sampled_from([["--pool="], ["--pool=x"]])))],
        "sigma invert": ["--map", sigma_file],
        "conjugate": [*weights, "--sigma", sigma_file, "--linear", linear_file],
        "violate": [*weights, "--linear", linear_file, *trials, *seed],
        "quasi-order": [*weights, *trials, *seed],
        "solve": [*weights, "--map", draw(mostly(st.just("map.txt"), st.just("sigma.json")))],
        "bergman": weights,
    }
    argv = command.split() + options[command]
    if draw(st.sampled_from([False] * 5 + [True])):
        # drop one flag with its value, or its value alone
        flags = [i for i, tok in enumerate(argv) if tok.startswith("--") and "=" not in tok]
        if flags:
            i = draw(st.sampled_from(flags))
            argv = argv[:i] + argv[i + draw(st.integers(1, 2)):]
    return argv, files


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exit_codes_and_output(command, data):
    argv, files = data.draw(cli_invocations(command))
    with tempfile.TemporaryDirectory() as directory:
        for name, content in files.items():
            Path(directory, name).write_text(content, encoding="utf-8")
        argv = [str(Path(directory, tok)) if tok in files or tok == "missing.json" else tok
                for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    else:
        payload = json.loads(out.getvalue())
        assert ("error" in payload) == (code == 1)
