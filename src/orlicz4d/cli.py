"""Command-line entry point.

Commands: gen-falpha, gen-bubble, norm, orlicz, tm, concentration,
lemma-add1, decompose, verify.  Artifacts are JSON (CSV for sweep tables);
repeated runs with the same flags and seed produce identical bytes.

Exit codes: 0 success, 2 validation failure (bad arguments or input files),
3 numerical failure (overflow, bracket or detection breakdown).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import bubbles as bb
from . import concentration as conc
from . import serialize as ser
from .decompose import ScaleDetectionError, decompose
from .gridfn import GridDomainError, IntegrandOverflowError
from .norms import NormKind, norm
from .orlicz import BracketExpansionError, OrliczConfig, orlicz_norm_report, tm_functional
from .verify import run_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _orlicz_config(args) -> OrliczConfig:
    return OrliczConfig(kappa=args.kappa, lambda_tol=args.lambda_tol)


def _add_orlicz_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", type=float, default=1.0,
                   help="constant on the right-hand side of the norm functional")
    p.add_argument("--lambda-tol", type=float, default=1e-4, dest="lambda_tol",
                   help="relative tolerance for the norm")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every parse fills a fresh
    namespace, so no flag value carries over from one main() to the next."""
    ap = argparse.ArgumentParser(prog="orlicz4d", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-falpha", help="generate the concentration family member")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-bubble", help="generate a (mollified) bubble")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--profile", default="L",
                   help="'L', 'tent', 'cusp', or a profile JSON path")
    p.add_argument("--mollified", default="true", choices=["true", "false"])
    p.add_argument("--out", required=True)

    p = sub.add_parser("norm", help="H^2-type norms of a stored function")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--which", default="L2",
                   choices=[k.name for k in NormKind])
    p.add_argument("--out")

    p = sub.add_parser("orlicz", help="Luxemburg-type norm of a stored function")
    p.add_argument("--in", dest="infile", required=True)
    _add_orlicz_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("tm", help="exponential-growth functional with L2 ratio")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("concentration", help="delta-pairing report for f_alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--phi", default="gaussian", choices=sorted(conc.TEST_FUNCTIONS))
    p.add_argument("--out")

    p = sub.add_parser("lemma-add1", help="log-weight integral sweep row (CSV)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("decompose", help="profile decomposition of a family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-profiles", type=int, default=5)
    p.add_argument("--stop-frac", type=float, default=0.1)
    _add_orlicz_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=["inequalities", "falpha", "concentration",
                            "bubbles", "decomposition", "all"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    return ap


_PROFILES = {"L": bb.profile_L, "tent": bb.profile_tent, "cusp": bb.profile_cusp}


def _load_profile(spec: str) -> bb.Profile:
    if spec in _PROFILES:
        return _PROFILES[spec]()
    return ser.profile_from_dict(ser.read_json(spec))


def _emit(payload: dict | str, out: str | None) -> None:
    """JSON of payload, or payload itself if it is text, to out or stdout."""
    text = payload if isinstance(payload, str) else ser.dumps(payload)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the library raises on non-finite integrals itself; numpy's overflow and
# invalid (inf - inf) warnings would only print ahead of the "numerical
# failure" line
@np.errstate(over="ignore", invalid="ignore")
def run(args) -> int:
    if args.command == "gen-falpha":
        _emit(ser.logradial_to_dict(bb.make_falpha(args.alpha)), args.out)

    elif args.command == "gen-bubble":
        rho = bb.default_mollifier() if args.mollified == "true" else None
        spec = bb.BubbleSpec(alpha=args.alpha, profile=_load_profile(args.profile), mollifier=rho)
        _emit(ser.logradial_to_dict(bb.make_bubble(spec)), args.out)

    elif args.command == "norm":
        f = ser.logradial_from_dict(ser.read_json(args.infile))
        val = norm(f, NormKind[args.which])
        _emit({"which": args.which, "value": val}, args.out)

    elif args.command == "orlicz":
        f = ser.logradial_from_dict(ser.read_json(args.infile))
        rep = orlicz_norm_report(f, _orlicz_config(args))
        _emit({"kappa": args.kappa, **ser.norm_report_to_dict(rep)}, args.out)

    elif args.command == "tm":
        f = ser.logradial_from_dict(ser.read_json(args.infile))
        res = tm_functional(f, args.beta)
        _emit({"beta": args.beta, "value": res.value, "l2_ratio": res.l2_ratio},
              args.out)

    elif args.command == "concentration":
        rep = conc.pair_concentration(args.alpha, conc.TEST_FUNCTIONS[args.phi])
        _emit(rep.to_dict(), args.out)

    elif args.command == "lemma-add1":
        (i4, _), (i3, _) = bb.lemma_add1_integrals(args.alpha)
        _emit("alpha,r4_integral,r4_limit,r3_integral,r3_limit\r\n"
              f"{args.alpha:.17g},{i4:.17g},0.2,{i3:.17g},0.5\r\n", args.out)

    elif args.command == "decompose":
        fam = ser.family_from_dict(ser.read_json(args.infile))
        res = decompose(fam, _orlicz_config(args),
                        stop_frac=args.stop_frac, max_profiles=args.max_profiles)
        _emit(ser.result_to_dict(res), args.out)

    elif args.command == "verify":
        reports = run_suite(args.suite, args.seed)
        payload = {"suite": args.suite, "seed": args.seed,
                   "passed": all(r.passed for r in reports),
                   "reports": [r.to_dict() for r in reports]}
        for r in reports:
            for row in r.rows:
                print(row.line())
            print(f"suite {r.suite}: {'PASS' if r.passed else 'FAIL'} "
                  f"({len(r.rows)} checks, {r.elapsed_s:.1f}s)")
        if args.out:
            _emit(payload, args.out)
        if not payload["passed"]:
            return EXIT_NUMERICAL
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return run(args)
    except (ValueError, KeyError, OSError, GridDomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntegrandOverflowError, BracketExpansionError,
            ScaleDetectionError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
