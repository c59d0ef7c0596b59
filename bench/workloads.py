"""The benchmark's workloads: seeded inputs, one timed operation, an untimed check.

Each workload is built from the imported library package and the seed.  It
hands out rounds of operations; `round(r)` is a pure function of (seed, r),
so a fixed seed always gives the same inputs, and every round has the same
mix of operation kinds, so throughput and latency percentiles describe a
stated input mix.  `execute` is the only timed code and calls the library
through its public API; `check` runs afterwards, outside the timed region,
and recomputes what it can by an independent route.

Rounds 0 .. setup_rounds-1 are generated (and any fixture files written) in
the constructor, which the benchmark times as set-up.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
DATA = ROOT / "tests" / "data"


# independent oracles ---------------------------------------------------------


def count_exponents(weights, target: int) -> int:
    """|{alpha in N^n : m . alpha = target}| by coin-change counting."""
    if target < 0:
        return 0
    ways = [1] + [0] * target
    for w in weights:
        for total in range(w, target + 1):
            ways[total] += ways[total - w]
    return ways[target]


def resonance_order(weights) -> int:
    """mu: the largest |alpha| with m . alpha = m_i over all i (a knapsack maximum)."""
    top = max(weights)
    best = [0] + [-1] * top
    for total in range(1, top + 1):
        for w in weights:
            if w <= total and best[total - w] >= 0:
                best[total] = max(best[total], best[total - w] + 1)
    return max(best[m] for m in weights)


def weighted(weights, alpha) -> int:
    return sum(w * a for w, a in zip(weights, alpha))


def unexpected(exc: BaseException) -> str:
    return "unexpected exception:\n" + "".join(traceback.format_exception(exc)).rstrip()


class Workload:
    """Common round bookkeeping; subclasses define make_round/execute/check."""

    name = ""
    setup_rounds = 1
    #: rounds in a traced run; fixed, so the run's counts repeat exactly
    traced_rounds = 1
    #: integer percentile reported as op_ms_tail
    tail_percentile = 50

    def __init__(self, qc, seed: int, workdir: Path):
        self.qc = qc
        self.seed = seed
        self.workdir = workdir
        self.prepare()
        self._ready = [self.make_round(r) for r in range(self.setup_rounds)]

    def prepare(self) -> None:
        """Set-up work other than input rounds (fixture files, oracles)."""

    def rng(self, key) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{key}")

    def round(self, r: int) -> list:
        return self._ready[r] if r < len(self._ready) else self.make_round(r)

    def make_round(self, r: int) -> list:
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, out) -> Optional[str]:
        """None when `out` is right for `op`, otherwise the reason it is not."""
        raise NotImplementedError

    def trace_counts(self, out) -> dict:
        """Counts taken from an operation's output in the traced run."""
        return {}


# solve_roundtrip -------------------------------------------------------------

SOLVE_WEIGHTS = ((1, 2, 4), (1, 2, 6), (1, 3, 6), (1, 2, 3, 4), (1, 2, 3, 5))
#: unsolvable inputs per round, next to one solvable input per weight vector;
#: two keeps the median operation inside the solvable range
UNSOLVABLE_PER_ROUND = 2


class SolveOp(NamedTuple):
    solvable: bool
    weights: object
    sigma: object
    linear: object


class SolveRoundtrip(Workload):
    """conjugate(sigma, L) then solve_conjugacy, the acceptance round trip."""

    name = "solve_roundtrip"
    setup_rounds = 8
    traced_rounds = 3
    # the top quarter starts inside the (1,2,6) cluster, below (1,2,3,5)
    tail_percentile = 75

    def make_round(self, r):
        qc, rng = self.qc, self.rng(r)
        ops = []
        for m in SOLVE_WEIGHTS:
            w = qc.WeightVector(m)
            sigma = qc.random_sigma(w, rng.getrandbits(32))
            # the pool has no zero, so every entry is nonzero and L mixes blocks
            ops.append(SolveOp(True, w, sigma, qc.random_linear_map(w.n, rng.getrandbits(32))))
        for k in range(UNSOLVABLE_PER_ROUND):
            w = qc.WeightVector(SOLVE_WEIGHTS[(UNSOLVABLE_PER_ROUND * r + k) % len(SOLVE_WEIGHTS)])
            sigma = qc.random_sigma(w, rng.getrandbits(32))
            ops.append(SolveOp(False, w, sigma, qc.random_block_diagonal_map(w, rng.getrandbits(32))))
        return ops

    def execute(self, op):
        qc = self.qc
        f = qc.conjugate(op.sigma, op.linear)
        if not op.solvable:
            # f = h + z1^(m_n+1) e_n with h = sigma^-1 J sigma and J
            # block-diagonal.  Every component h_i is m_i-homogeneous, and so
            # is every component of sigma' . h and of J . sigma' for any
            # triangular resonant sigma' (g'_i only uses variables of weight
            # below m_i <= m_n, never z_n).  In sigma' . f = J . sigma' the
            # term z1^(m_n+1), of weighted degree m_n + 1, therefore appears
            # on the left of component n only, so no sigma' exists.
            n, m = op.weights.n, op.weights.m
            bump = qc.Polynomial.monomial(n, (m[-1] + 1,) + (0,) * (n - 1))
            f = qc.PolyMap(f.components[:-1] + (f.components[-1] + bump,))
        return f, qc.solve_conjugacy(f, op.weights)

    def check(self, op, out):
        qc = self.qc
        if not op.solvable:
            if isinstance(out, qc.NoResonantConjugacy):
                return None
            return f"unsolvable input for {op.weights.m} gave {out!r}"
        if isinstance(out, BaseException):
            return unexpected(out)
        f, solution = out
        if not solution.residual_zero:
            return f"residual_zero is False for {op.weights.m}"
        if solution.linear != op.linear:
            return f"recovered J differs from L for {op.weights.m}"
        if qc.conjugate(solution.sigma, solution.linear) != f:
            return f"conjugate(sigma, J) != f for {op.weights.m}"
        return None


# map_algebra -----------------------------------------------------------------

#: the ten weight vectors of the test suite's WEIGHT_SET (tests/oracles.py),
#: copied so that editing the tests cannot change the benchmark
WEIGHT_SET = (
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 3),
    (1, 1, 2),
    (1, 2, 2),
    (1, 2, 3),
    (1, 2, 4),
    (1, 2, 6),
    (1, 2, 3, 4),
)


class MapOp(NamedTuple):
    weights: object
    sigma_seed: int
    linear_seed: int
    mu: int


class MapAlgebra(Workload):
    """Many small sample/invert/compose/conjugate calls over WEIGHT_SET."""

    name = "map_algebra"
    setup_rounds = 64
    traced_rounds = 100
    tail_percentile = 99

    def make_round(self, r):
        rng = self.rng(r)
        return [
            MapOp(self.qc.WeightVector(m), rng.getrandbits(32), rng.getrandbits(32), resonance_order(m))
            for m in WEIGHT_SET
        ]

    def execute(self, op):
        qc = self.qc
        sigma = qc.random_sigma(op.weights, op.sigma_seed)
        tau = qc.invert_sigma(sigma)
        composed = qc.compose_sigma(tau, sigma)
        linear = qc.random_block_diagonal_map(op.weights, op.linear_seed)
        return sigma, tau, composed, qc.check_theorem_instance(op.weights, sigma, linear)

    def check(self, op, out):
        if isinstance(out, BaseException):
            return unexpected(out)
        sigma, tau, composed, report = out
        m = op.weights.m
        if not composed.is_identity():
            return f"compose_sigma(tau, sigma) is not the identity for {m}"
        if self.qc.invert_sigma(tau) != sigma:
            return f"invert_sigma(tau) != sigma for {m}"
        components = report.result.components
        degree = max((sum(alpha) for p in components for alpha in p.terms), default=0)
        if degree > op.mu:
            return f"conjugate degree {degree} exceeds mu {op.mu} for {m}"
        for i, p in enumerate(components):
            if any(weighted(m, alpha) != m[i] for alpha in p.terms):
                return f"component {i + 1} of the conjugate is not resonant for {m}"
        return None


# cli_mix ---------------------------------------------------------------------

#: the large enumerations: about 10.6k resonant exponents for (1,1,1,1,1,20);
#: two bergman calls a round keep the tail percentile inside their cluster
BIG_RESONANCE = (1, 1, 1, 1, 1, 20)
BIG_BERGMAN = ((1, 1, 1, 1, 1, 20), (1, 1, 1, 1, 1, 19))
#: weight vectors of the fixture files; fixture k serves rounds r = k mod 4
FIXTURE_WEIGHTS = ((1, 2), (1, 2, 4), (1, 1, 2), (1, 3))
QUASI_WEIGHTS = ((1, 2), (1, 3), (1, 2, 3), (1, 1, 2))

#: argv -> golden stdout, mirroring the CLI tests; paths are under tests/data
GOLDEN_CASES = (
    ("resonance_12.json", 0, ("resonance", "--weights", "1,2")),
    ("resonance_123_index3.json", 0, ("resonance", "--weights", "1,2,3", "--index", "3")),
    ("partition_1223.json", 0, ("partition", "--weights", "1,2,2,3")),
    ("sigma_random_124_seed7.json", 0, ("sigma", "random", "--weights", "1,2,4", "--seed", "7")),
    ("sigma_invert_124.json", 0, ("sigma", "invert", "--map", "@sigma_124.json")),
    ("conjugate_diag.json", 0,
     ("conjugate", "--weights", "1,2", "--sigma", "@sigma_12.json", "--linear", "@linear_diag23.json")),
    ("conjugate_offblock.json", 0,
     ("conjugate", "--weights", "1,2", "--sigma", "@sigma_12.json", "--linear", "@linear_offblock.json")),
    ("violate_found.json", 0,
     ("violate", "--weights", "1,2", "--linear", "@linear_offblock.json", "--trials", "8", "--seed", "3")),
    ("violate_absent.json", 0,
     ("violate", "--weights", "2,3", "--linear", "@linear_offblock.json", "--trials", "4", "--seed", "1")),
    ("quasi_order_12.json", 0, ("quasi-order", "--weights", "1,2", "--trials", "16", "--seed", "1")),
    ("solve_12.json", 0, ("solve", "--weights", "1,2", "--map", "@map_solvable.txt")),
    ("bergman_122.json", 0, ("bergman", "--weights", "1,2,2")),
    ("error_notcoprime.json", 1, ("resonance", "--weights", "2,4")),
)


class CliOp(NamedTuple):
    argv: tuple
    code: int
    golden: Optional[str] = None
    error: Optional[str] = None
    expect: Optional[Callable] = None


def csv(weights) -> str:
    return ",".join(str(w) for w in weights)


def random_weights(rng: random.Random, repeats: bool = False) -> tuple:
    """Sorted weights starting at 1 (so gcd 1), n in 2..4, entries up to 9."""
    n = rng.randint(2, 4)
    pool = [1, 1, 2, 2, 3] if repeats else range(2, 10)
    return (1,) + tuple(sorted(rng.choice(pool) for _ in range(n - 1)))


def expect_resonance(m, index=None):
    def check(payload):
        if payload.get("weights") != list(m):
            return "weights echoed wrong"
        sets = {str(index): payload["set"]} if index else payload["sets"]
        for key, exponents in sets.items():
            target = m[int(key) - 1]
            if len(exponents) != count_exponents(m, target):
                return f"resonance set {key} has {len(exponents)} exponents"
            if any(weighted(m, alpha) != target for alpha in exponents):
                return f"resonance set {key} holds a non-resonant exponent"
        if index is None and payload["mu"] != resonance_order(m):
            return f"mu {payload['mu']} != {resonance_order(m)}"
        return None

    return check


def expect_partition(m):
    bounds = [0] + [k for k in range(1, len(m)) if m[k] != m[k - 1]] + [len(m)]
    return lambda payload: None if payload == {"boundaries": bounds} else f"boundaries {payload}"


def expect_sigma(m):
    def check(payload):
        if payload.get("weights") != list(m):
            return "weights echoed wrong"
        for key, part in payload["g"].items():
            for text in part:
                alpha = [int(a) for a in text.split(",")]
                if weighted(m, alpha) != m[int(key) - 1] or sum(alpha) < 2:
                    return f"g_{key} holds an inadmissible exponent {text}"
        return None

    return check


def expect_conjugate(m):
    def check(payload):
        if not (payload["within_bound"] and payload["block_diagonal"]
                and all(payload["component_resonant"])):
            return "block-diagonal conjugate not within the bound"
        if payload["degree"] > resonance_order(m):
            return f"degree {payload['degree']} exceeds mu"
        return None

    return check


def expect_violate(m):
    def check(payload):
        if payload["found"] is False:
            return None
        return None if payload["degree"] > resonance_order(m) else "witness within the bound"

    return check


def expect_quasi(m):
    def check(payload):
        mu = resonance_order(m)
        ok = payload["cap"] == mu * mu and 1 <= payload["observed_max"] <= mu * mu
        return None if ok else f"quasi-order {payload} for mu {mu}"

    return check


def expect_solved(payload):
    return None if payload["residual_zero"] is True else "residual_zero is not true"


def expect_bergman(m):
    def check(payload):
        n = len(m)
        for i in range(n):
            for j in range(n):
                got = len(payload["admissible"][i][j])
                if got != count_exponents(m, m[i] - m[j]):
                    return f"admissible({i + 1}, {j + 1}) has {got} exponents"
        flags = payload["block_pattern"]["may_be_nonzero"]
        if any(flags[p][q] for p in range(len(flags)) for q in range(p, len(flags))):
            return "block pattern is not strictly lower"
        return None

    return check


class CliMix(Workload):
    """In-process cli.run over every subcommand, error paths and goldens."""

    name = "cli_mix"
    setup_rounds = 4
    traced_rounds = 5
    # the top twentieth lies inside the two large bergman calls of each round
    tail_percentile = 95

    def prepare(self):
        self.cli = importlib.import_module("quasicirc.cli")
        self.goldens = [
            CliOp(tuple(str(DATA / a[1:]) if a.startswith("@") else a for a in argv),
                  code, golden=(GOLDEN / name).read_text(encoding="utf-8"))
            for name, code, argv in GOLDEN_CASES
        ]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._write_fixtures()

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def _write(self, name: str, text: str) -> None:
        (self.workdir / name).write_text(text, encoding="utf-8")

    def _write_fixtures(self):
        qc, rng = self.qc, self.rng("fixtures")
        for k, m in enumerate(FIXTURE_WEIGHTS):
            w = qc.WeightVector(m)
            sigma = qc.random_sigma(w, rng.getrandbits(32))
            self._write(f"sigma_{k}.json", json.dumps(sigma.to_json_dict()))
            block = qc.random_block_diagonal_map(w, rng.getrandbits(32))
            self._write(f"blockdiag_{k}.json", json.dumps(block.to_string_rows()))
            mixing = qc.random_linear_map(2, rng.getrandbits(32))
            self._write(f"mixing_{k}.json", json.dumps(mixing.to_string_rows()))
            linear = qc.random_linear_map(w.n, rng.getrandbits(32))
            f = qc.conjugate(sigma, linear)
            self._write(f"solvable_{k}.txt", "\n".join(qc.format_poly_map(f)) + "\n")
            # the unsolvable family of solve_roundtrip: h + z1^(m_n+1) e_n
            h = qc.conjugate(sigma, block)
            bump = qc.Polynomial.monomial(w.n, (m[-1] + 1,) + (0,) * (w.n - 1))
            f = qc.PolyMap(h.components[:-1] + (h.components[-1] + bump,))
            self._write(f"unsolvable_{k}.txt", "\n".join(qc.format_poly_map(f)) + "\n")
        self._write("singular.json", json.dumps([["1", "2"], ["2", "4"]]))
        self._write("malformed.txt", "z1 +* z2\nz2\n")

    def make_round(self, r):
        rng = self.rng(r)
        k = r % len(FIXTURE_WEIGHTS)
        mk = FIXTURE_WEIGHTS[k]
        small = random_weights(rng)
        index = rng.randint(1, len(small))
        repeated = random_weights(rng, repeats=True)
        quasi = QUASI_WEIGHTS[r % len(QUASI_WEIGHTS)]
        unsorted = (2, 1) + small[1:]
        seed = str(rng.getrandbits(16))
        ops = list(self.goldens) + [
            CliOp(("resonance", "--weights", csv(small)), 0, expect=expect_resonance(small)),
            CliOp(("resonance", "--weights", csv(small), "--index", str(index)), 0,
                  expect=expect_resonance(small, index)),
            CliOp(("partition", "--weights", csv(repeated)), 0, expect=expect_partition(repeated)),
            CliOp(("sigma", "random", "--weights", csv(small), "--seed", seed), 0,
                  expect=expect_sigma(small)),
            CliOp(("sigma", "invert", "--map", self._path(f"sigma_{k}.json")), 0,
                  expect=expect_sigma(mk)),
            CliOp(("conjugate", "--weights", csv(mk), "--sigma", self._path(f"sigma_{k}.json"),
                   "--linear", self._path(f"blockdiag_{k}.json")), 0, expect=expect_conjugate(mk)),
            CliOp(("violate", "--weights", "1,2", "--linear", self._path(f"mixing_{k}.json"),
                   "--trials", "8", "--seed", seed), 0, expect=expect_violate((1, 2))),
            CliOp(("quasi-order", "--weights", csv(quasi), "--trials", "4", "--seed", seed), 0,
                  expect=expect_quasi(quasi)),
            CliOp(("solve", "--weights", csv(mk), "--map", self._path(f"solvable_{k}.txt")), 0,
                  expect=expect_solved),
            CliOp(("bergman", "--weights", csv(small)), 0, expect=expect_bergman(small)),
            CliOp(("resonance", "--weights", csv(BIG_RESONANCE)), 0,
                  expect=expect_resonance(BIG_RESONANCE)),
        ] + [
            CliOp(("bergman", "--weights", csv(m)), 0, expect=expect_bergman(m)) for m in BIG_BERGMAN
        ] + [
            CliOp(("solve", "--weights", csv(mk), "--map", self._path(f"unsolvable_{k}.txt")), 1,
                  error="NoResonantConjugacy"),
            CliOp(("conjugate", "--weights", "1,2", "--sigma", self._path("sigma_0.json"),
                   "--linear", self._path("singular.json")), 1, error="SingularLinearMap"),
            CliOp(("violate", "--weights", csv(mk), "--linear", self._path(f"blockdiag_{k}.json"),
                   "--trials", "4", "--seed", seed), 1, error="BlockDiagonalInput"),
            CliOp(("partition", "--weights", csv(unsorted)), 1, error="Unsorted"),
            CliOp(("resonance", "--weights", csv(small) + ",x"), 2),
            CliOp(("quasi-order", "--weights", "1,2", "--trials", "0", "--seed", seed), 2),
            CliOp(("solve", "--weights", "1,2", "--map", self._path("malformed.txt")), 2),
            CliOp(("sigma", "invert", "--map", self._path("missing.json")), 2),
        ]
        return ops

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.run(list(op.argv))
        return code, out.getvalue()

    def check(self, op, out):
        if isinstance(out, BaseException):
            return unexpected(out)
        code, stdout = out
        where = " ".join(op.argv)
        if code != op.code:
            return f"exit {code}, expected {op.code}: {where}"
        if op.golden is not None:
            return None if stdout == op.golden else f"stdout differs from the golden: {where}"
        if op.code == 2:
            return None if stdout == "" else f"usage error wrote to stdout: {where}"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON: {where}"
        if op.code == 1:
            return None if payload == {"error": op.error} else f"payload {payload}: {where}"
        problem = op.expect(payload)
        return None if problem is None else f"{problem}: {where}"

    def trace_counts(self, out):
        if isinstance(out, BaseException):
            return {}
        return {"cli.stdout_bytes": len(out[1].encode("utf-8"))}


WORKLOADS = {cls.name: cls for cls in (SolveRoundtrip, MapAlgebra, CliMix)}
