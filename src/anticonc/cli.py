"""Command-line surface.

    anticonc curve   --family F --y-min A --y-max B --steps N [--format csv|json]
    anticonc tail    --family F --params '{"lambda": 1.0}' --y Y
    anticonc witness --family F --y Y --epsilon E
    anticonc verify  [specfun|closed-forms|witnesses|oracles|all]

Exit codes: 0 success; 1 a verification failure, or a computation that
did not converge or tripped an internal guard; 2 a usage or validation
error.  `main` is the one place that turns an error into its
`error: <message>` line on stderr and its exit code; no traceback is
printed for these.
`verify --seed` sets the master seed of the Monte Carlo checks.
CSV output is deterministic byte-for-byte for fixed flags: floats are
printed with round-trip %.17g formatting.
numpy loads only in the commands that use it (`curve` for its y grid,
`verify`); `tail` and `witness` run on `math` and `specfun` alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import anticoncentration as anti
from . import distributions as dist
from . import oracle, verify
from .distributions import FamilyId, ParamSet
from .errors import ConvergenceError, DomainError, InternalError, SearchError

USAGE_ERROR = 2
VERIFY_ERROR = 1  # also a computation that did not converge or tripped a guard


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    return (av.value, f"n0={av.detail.n0};argmax_n={av.detail.argmax_n}",
            av.to_json_dict()["detail"])


def cmd_curve(args) -> int:
    family = dist._as_family(args.family)
    for flag, y in (("--y-min", args.y_min), ("--y-max", args.y_max)):
        if not math.isfinite(y):
            raise DomainError(f"{flag} must be finite, got {y}")
    if not (0.0 < args.y_min < args.y_max):
        raise DomainError(f"need 0 < y-min < y-max, got [{args.y_min}, {args.y_max}]")
    if not 2 <= args.steps <= 10**6:  # GridAxis's rule; linspace allocates every point
        raise DomainError(f"steps must be from 2 to 10**6, got {args.steps}")
    if (family is FamilyId.STUDENT_T and not args.numeric_fallback
            and args.y_max >= anti.STUDENT_T_Y_MAX):
        raise DomainError(
            "the student-t closed form covers only y < sqrt(6)/2 = "
            f"{anti.STUDENT_T_Y_MAX!r}; rerun with --numeric-fallback to get an "
            "explicitly-labeled grid-search value beyond it")

    import numpy as np
    rows = []
    for y in np.linspace(args.y_min, args.y_max, args.steps):
        value, detail_s, detail_j = _curve_row(family, float(y))
        rows.append((float(y), value, detail_s, detail_j))

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
    family = dist._as_family(args.family)
    try:
        params = json.loads(args.params)
    except ValueError as exc:
        raise DomainError(str(exc)) from None
    if not isinstance(params, dict):
        raise DomainError("--params must be a JSON object of parameter fields")
    ps = ParamSet(family, params)
    dist._valid_law(ps)  # the parameters are reported before --y
    dist._check_y(args.y, "--y")
    result = dist.tail_probability(ps, args.y)
    print(json.dumps(result.to_json_dict(), sort_keys=True))
    return 0


def cmd_witness(args) -> int:
    w = anti.witness_parameter(args.family, args.y, args.epsilon)
    print(f"construction: {anti.witness_ray_description(w.family)}", file=sys.stderr)
    print(json.dumps(w.to_json_dict(), sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    results = [r for name in names for r in verify.run_suite(name, args.seed)]
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
    try:
        return args.fn(args)
    except (DomainError, SearchError, ConvergenceError, InternalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, (DomainError, SearchError)) else VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
