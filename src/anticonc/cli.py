"""Command-line surface.

    anticonc curve   --family F --y-min A --y-max B --steps N [--format csv|json]
    anticonc tail    --family F --params '{"lambda": 1.0}' --y Y
    anticonc witness --family F --y Y --epsilon E
    anticonc verify  [specfun|closed-forms|witnesses|oracles|all]

Exit codes: 0 success, 1 verification failure, 2 usage/validation error.
`verify --seed` sets the master seed of the Monte Carlo checks.
CSV output is deterministic byte-for-byte for fixed flags: floats are
printed with round-trip %.17g formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import anticoncentration as anti
from . import distributions as dist
from . import oracle, verify
from .distributions import FamilyId, ParamSet
from .errors import DomainError, SearchError

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _curve_row(family: FamilyId, y: float):
    """(value, detail-string, detail-json) for one curve point."""
    a_fn = anti._CLOSED_FORMS.get(family)
    if a_fn is None:
        return 0.0, "zero-infimum", "zero-infimum"
    if family is not FamilyId.STUDENT_T:
        return a_fn(y).value, "", None
    if y >= anti.STUDENT_T_Y_MAX:
        est = oracle.grid_infimum(family, y, oracle.default_grid(family))
        return est.value, "numeric-grid:n=3..400", "numeric-grid:n=3..400"
    av = a_fn(y)
    d = {"n0": av.detail.n0, "argmax_n": av.detail.argmax_n}
    return av.value, f"n0={av.detail.n0};argmax_n={av.detail.argmax_n}", d


def cmd_curve(args) -> int:
    try:
        family = dist._as_family(args.family)
    except DomainError as exc:
        return _fail(str(exc))
    if not (0.0 < args.y_min < args.y_max):
        return _fail(f"need 0 < y-min < y-max, got [{args.y_min}, {args.y_max}]")
    if args.steps < 2:
        return _fail(f"steps must be >= 2, got {args.steps}")
    if (family is FamilyId.STUDENT_T and not args.numeric_fallback
            and args.y_max >= anti.STUDENT_T_Y_MAX):
        return _fail(
            "the student-t closed form covers only y < sqrt(6)/2 = "
            f"{anti.STUDENT_T_Y_MAX!r}; rerun with --numeric-fallback to get an "
            "explicitly-labeled grid-search value beyond it")

    ys = np.linspace(args.y_min, args.y_max, args.steps)
    rows = []
    try:
        for y in ys:
            value, detail_s, detail_j = _curve_row(family, float(y))
            rows.append((float(y), value, detail_s, detail_j))
    except DomainError as exc:
        return _fail(str(exc))

    if args.format == "csv":
        print("y,value,family,detail")
        for y, value, detail_s, _ in rows:
            print(f"{_fmt(y)},{_fmt(value)},{family.value},{detail_s}")
    else:
        payload = [{"y": y, "value": value, "family": family.value, "detail": detail_j}
                   for y, value, _, detail_j in rows]
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_tail(args) -> int:
    try:
        family = dist._as_family(args.family)
        params = json.loads(args.params)
    except (DomainError, ValueError) as exc:
        return _fail(str(exc))
    if not isinstance(params, dict):
        return _fail("--params must be a JSON object of parameter fields")
    ps = ParamSet(family, params)
    try:
        dist.require_valid(ps)
        if not (args.y > 0 and math.isfinite(args.y)):
            return _fail(f"--y must be a positive real, got {args.y}")
        result = dist.tail_probability(ps, args.y)
    except DomainError as exc:  # e.g. a variance that overflows a double
        return _fail(str(exc))
    print(json.dumps(result.to_json_dict(), sort_keys=True))
    return 0


def cmd_witness(args) -> int:
    try:
        w = anti.witness_parameter(args.family, args.y, args.epsilon)
    except (DomainError, SearchError) as exc:
        return _fail(str(exc))
    print(f"construction: {anti.witness_ray_description(w.family)}", file=sys.stderr)
    print(json.dumps(w.to_json_dict(), sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    try:
        results = verify.run_suites(names, args.seed)
    except DomainError as exc:  # a seed outside 64 bits
        return _fail(str(exc))
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.suite:12s} {r.name:<{width}}"
        if r.detail:
            line += f"  {r.detail}"
        print(line)
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else VERIFY_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticonc",
        description="Evaluate anti-concentration functions, standardized tails, "
                    "zero-infimum witnesses, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="A(y) over an inclusive y grid")
    p.add_argument("--family", required=True)
    p.add_argument("--y-min", type=float, required=True)
    p.add_argument("--y-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--numeric-fallback", action="store_true",
                   help="student-t only: past y = sqrt(6)/2 report a grid-search "
                        "value instead of refusing")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("tail", help="exact standardized tail P(|X-mu| >= y*sigma)")
    p.add_argument("--family", required=True)
    p.add_argument("--params", required=True, help='JSON object, e.g. {"lambda": 1.0}')
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(fn=cmd_tail)

    p = sub.add_parser("witness", help="parameters pushing the tail below epsilon")
    p.add_argument("--family", required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=verify.SUITES + ("all",))
    p.add_argument("--seed", type=int, default=verify.MASTER_SEED,
                   help="master seed of the Monte Carlo checks (default %(default)s)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
