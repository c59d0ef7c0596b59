"""Command-line interface with deterministic JSON output.

Exit codes: 0 success, 1 domain error (JSON `{"error": name}` payload on
stdout), 2 usage error (malformed flags or files; diagnostics on stderr).
Identical invocations produce byte-identical stdout, and stdout is
`json.dumps(payload, indent=2)` byte for byte.  A result and an error
payload take one write path, `_pieces` and then `writelines`.  It writes in
pieces, so the text of a large listing is never joined into one string, but
only after the whole payload has been formatted: a command that fails
writes nothing but its error payload.  The writer knows a listing by its
type, `weights.Listing`, which only `weighted_exponents` makes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bergman as bergman_mod
from .conjugation import (
    check_theorem_instance,
    conjugate,
    find_violation,
    quasi_resonance_estimate,
    solve_conjugacy,
)
from .errors import BudgetExceeded, ParseError, QuasicircError, WeightMismatch
from .linalg import LinearMap, as_fraction
from .poly import format_poly_map, parse_poly_map
from .resonant import DEFAULT_POOL, TriangularResonantMap, invert_sigma, random_sigma
from .weights import Listing, WeightVector, block_partition, component_order
from .weights import resonance_profile, resonance_set


def _weights_arg(text: str):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _pool_arg(text: str):
    if text == "":
        return ()
    try:
        return tuple(as_fraction(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated rationals, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _load_sigma(path: str, expected: WeightVector = None) -> TriangularResonantMap:
    sigma = TriangularResonantMap.from_json_dict(_read_json(path))
    if expected is not None and sigma.weight != expected:
        raise WeightMismatch(
            f"--weights says {expected.m}, {path} says {sigma.weight.m}"
        )
    return sigma


def _load_linear(path: str) -> LinearMap:
    data = _read_json(path)
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParseError(f"{path}: expected a row-major array of rows")
    try:
        return LinearMap(data)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def cmd_resonance(args) -> dict:
    weights = WeightVector(args.weights)
    if args.index is not None:
        exponents = resonance_set(weights, args.index)
        return {
            "weights": list(weights.m),
            "index": args.index,
            "set": exponents,
            "order": component_order(weights, args.index),
        }
    profile = resonance_profile(weights)
    return {
        "weights": list(weights.m),
        "sets": {str(i): profile.sets[i - 1] for i in range(1, weights.n + 1)},
        "orders": {str(i): profile.orders[i - 1] for i in range(1, weights.n + 1)},
        "mu": profile.order,
    }


def cmd_partition(args) -> dict:
    weights = WeightVector(args.weights)
    return {"boundaries": list(block_partition(weights).boundaries)}


def cmd_sigma_random(args) -> dict:
    weights = WeightVector(args.weights)
    return random_sigma(weights, args.seed, args.pool).to_json_dict()


def cmd_sigma_invert(args) -> dict:
    sigma = _load_sigma(args.map)
    return invert_sigma(sigma).to_json_dict()


def cmd_conjugate(args) -> dict:
    weights = WeightVector(args.weights)
    sigma = _load_sigma(args.sigma, expected=weights)
    linear = _load_linear(args.linear)
    report = check_theorem_instance(weights, sigma, linear)
    return {
        "weights": list(weights.m),
        "degree": report.degree,
        "resonance_order": report.resonance_order,
        "within_bound": report.within_bound,
        "block_diagonal": report.block_diagonal,
        "component_resonant": list(report.component_resonant),
        "result": format_poly_map(report.result),
    }


def cmd_violate(args) -> dict:
    weights = WeightVector(args.weights)
    linear = _load_linear(args.linear)
    witness = find_violation(weights, linear, args.trials, args.seed)
    if witness is None:
        return {"found": False}
    return {
        "found": True,
        "degree": conjugate(witness, linear).total_degree(),
        "sigma": witness.to_json_dict(),
    }


def cmd_quasi_order(args) -> dict:
    weights = WeightVector(args.weights)
    estimate = quasi_resonance_estimate(weights, args.trials, args.seed)
    return {"observed_max": estimate.observed_max, "cap": estimate.cap}


def cmd_solve(args) -> dict:
    weights = WeightVector(args.weights)
    f = parse_poly_map(_read_text(args.map))
    solution = solve_conjugacy(f, weights)
    return {
        "sigma": solution.sigma.to_json_dict(),
        "linear": solution.linear.to_string_rows(),
        "residual_zero": solution.residual_zero,
        "free_parameters": solution.free_parameters,
    }


def cmd_bergman(args) -> dict:
    weights = WeightVector(args.weights)
    pattern = bergman_mod.admissibility_pattern(weights)
    blocks = bergman_mod.tensor_block_pattern(weights)
    return {
        "weights": list(weights.m),
        "admissible": [
            [pattern.at(i, j) for j in range(1, weights.n + 1)]
            for i in range(1, weights.n + 1)
        ],
        "block_pattern": {
            "boundaries": list(blocks.partition.boundaries),
            "may_be_nonzero": [list(row) for row in blocks.may_be_nonzero],
        },
    }


def _pieces(obj) -> list:
    """The text of `json.dumps(obj, indent=2)` as a list of strings.

    The stdlib's C encoder is used only without an indent.  Here a `Listing`
    (the exponent lists that make up large outputs), known by its type, is
    formatted with one row template, once per object and indent, and each
    table entry that shares it gets the same string, so a shared listing is
    held as text once; everything else, an equal list of int rows too,
    recurses, and scalars and keys are encoded by `json.dumps` itself.
    """
    out = []
    try:
        _write(obj, "\n", out, {})
    except ValueError as exc:  # an int past sys.get_int_max_str_digits()
        raise BudgetExceeded(f"number too long to print: {exc}") from None
    return out


def _write(obj, newline: str, out: list, listings: dict) -> None:
    # listings maps (id, newline) of a row listing to its text; obj keeps
    # every listing alive for the whole call, so no id is reused
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        separator = "{" + inner
        for key, value in obj.items():
            if isinstance(key, str):
                key = json.dumps(key)
            else:  # json's own coercion of int, float, bool and None keys
                key = json.dumps({key: 0})[1:-4]
            out.append(f"{separator}{key}: ")
            _write(value, inner, out, listings)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        key = (id(obj), newline)
        if not obj:
            out.append("[]")
        elif key in listings:
            out.append(listings[key])
        elif type(obj) is Listing:  # int tuples of one length, by construction
            cell = inner + "  "
            k = len(obj[0])
            row = "[" + cell + ("," + cell).join(["%d"] * k) + inner + "]" if k else "[]"
            rows = ("," + inner).join([row % r for r in obj])
            listings[key] = f"[{inner}{rows}{newline}]"
            out.append(listings[key])
        else:
            separator = "[" + inner
            for item in obj:
                out.append(separator)
                _write(item, inner, out, listings)
                separator = "," + inner
            out.append(newline + "]")
    else:
        out.append(json.dumps(obj))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasicirc",
        description="Exact resonance combinatorics and triangular polynomial automorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weights(p):
        p.add_argument("--weights", type=_weights_arg, required=True,
                       help="comma-separated positive integers, e.g. 1,2,3")

    p = sub.add_parser("resonance", help="resonance sets and orders")
    add_weights(p)
    p.add_argument("--index", type=int, default=None, help="restrict to one component (1-based)")
    p.set_defaults(handler=cmd_resonance)

    p = sub.add_parser("partition", help="equal-weight block boundaries")
    add_weights(p)
    p.set_defaults(handler=cmd_partition)

    p_sigma = sub.add_parser("sigma", help="triangular resonant maps")
    sigma_sub = p_sigma.add_subparsers(dest="sigma_command", required=True)

    p = sigma_sub.add_parser("random", help="sample a random map")
    add_weights(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pool", type=_pool_arg, default=DEFAULT_POOL,
                   help="comma-separated rational coefficients (use --pool=-2,-1,1,2)")
    p.set_defaults(handler=cmd_sigma_random)

    p = sigma_sub.add_parser("invert", help="exact compositional inverse")
    p.add_argument("--map", required=True, help="JSON file holding the map")
    p.set_defaults(handler=cmd_sigma_invert)

    p = sub.add_parser("conjugate", help="conjugate a linear map and report the degree bound")
    add_weights(p)
    p.add_argument("--sigma", required=True, help="JSON file holding the triangular map")
    p.add_argument("--linear", required=True, help="JSON file holding the matrix rows")
    p.set_defaults(handler=cmd_conjugate)

    p = sub.add_parser("violate", help="search for a degree-bound violation witness")
    add_weights(p)
    p.add_argument("--linear", required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=cmd_violate)

    p = sub.add_parser("quasi-order", help="estimate the maximal conjugate degree")
    add_weights(p)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=cmd_quasi_order)

    p = sub.add_parser("solve", help="recover a linearizing triangular map")
    add_weights(p)
    p.add_argument("--map", required=True, help="text file, one component per line")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("bergman", help="admissible exponents and tensor block pattern")
    add_weights(p)
    p.set_defaults(handler=cmd_bergman)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # _pieces raises BudgetExceeded, not ValueError, on an over-long int
        pieces, code = _pieces(args.handler(args)), 0
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuasicircError as exc:
        print(f"error: {exc}", file=sys.stderr)
        pieces, code = _pieces({"error": type(exc).__name__}), 1
    sys.stdout.writelines(pieces)
    sys.stdout.write("\n")
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
