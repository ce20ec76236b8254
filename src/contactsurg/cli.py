"""Command-line front end.

Commands:

* ``invariants <file> [--format text|json]``  full report for a diagram
* ``knot <file>``                             tb and rot of the distinguished
                                              knot in the surgered manifold
* ``contfrac <p> <q>``                        negative continued fraction
* ``tight-count <p> <q>``                     Giroux-Honda count for L(p,q)
* ``family --n N --s S --k K --l L --pstab P --qstab Q [--emit FILE]``
* ``census --n N --s S [--grid NMAX SMAX]``

Exit codes: 0 ok, 2 parse/validation error, 3 failed invariant
precondition (singular linking matrix, tb = 0 on a +1-component),
4 missing distinguished knot, 5 failed census check. Rationals are
printed as ``a/b`` in lowest terms with positive denominator; integers
drop the ``/1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import families, invariants
from .diagram import (
    DiagramError,
    MissingKnotError,
    diagram_to_json,
    load_diagram,
    validate,
)
from .families import FamilyParams, FamilyParamsError, census, exceptional_expectations
from .invariants import D3PreconditionError, NonTorsionEulerClassError
from .lens import LensSpace, LensSpaceError, neg_contfrac, tight_count

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NO_KNOT = 4
EXIT_CENSUS = 5


def fmt_q(x) -> str:
    """Render an exact rational as 'a/b', or 'a' when the denominator is 1."""
    return str(Fraction(x))


def fmt_h1(orders) -> str:
    if not orders:
        return "trivial"
    return " x ".join("Z" if d == 0 else f"Z_{d}" for d in orders)


def _load_validated(path):
    d = load_diagram(path)  # raises on every fatal finding
    for v in validate(d):
        print(str(v), file=sys.stderr)
    return d


def _report_json(rep: invariants.InvariantReport) -> dict:
    return {
        "chi": rep.chi,
        "sigma": rep.sigma,
        "det_m": rep.det_m,
        "q_plus": rep.q_plus,
        "c_squared": None if rep.c_squared is None else fmt_q(rep.c_squared),
        "d3": None if rep.d3 is None else fmt_q(rep.d3),
        "h1": list(rep.h1),
        "euler_class": list(rep.euler_class),
        "euler_residue": rep.euler_residue,
        "euler_generator": rep.euler_generator,
        "problems": list(rep.problems),
    }


def cmd_invariants(args) -> int:
    d = _load_validated(args.file)
    rep = invariants.report(d)
    if args.format == "json":
        print(json.dumps(_report_json(rep), indent=2))
    else:
        print(f"chi = {rep.chi}")
        print(f"sigma = {rep.sigma}")
        print(f"det M = {rep.det_m}")
        print(f"q = {rep.q_plus}")
        if rep.c_squared is not None:
            print(f"c2 = {fmt_q(rep.c_squared)}")
        if rep.d3 is not None:
            print(f"d3 = {fmt_q(rep.d3)}")
        print(f"H1 = {fmt_h1(rep.h1)}")
        print(f"euler class = ({', '.join(str(c) for c in rep.euler_class)})")
        if rep.euler_residue is not None and rep.euler_generator is not None:
            print(f"euler residue = {rep.euler_residue} "
                  f"(generator: meridian of {rep.euler_generator})")
    if rep.problems:
        for problem in rep.problems:
            print(problem, file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


def cmd_knot(args) -> int:
    d = _load_validated(args.file)
    tb = invariants.tb_surgered(d)
    rot = invariants.rot_surgered(d)
    print(f"tb = {fmt_q(tb)}")
    print(f"rot = {fmt_q(rot)}")
    return EXIT_OK


def cmd_contfrac(args) -> int:
    lens = LensSpace(args.p, args.q)
    expansion = neg_contfrac(lens)
    print(f"{args.p}/{args.q} = [{', '.join(str(a) for a in expansion.terms)}]")
    return EXIT_OK


def cmd_tight_count(args) -> int:
    print(tight_count(LensSpace(args.p, args.q)))
    return EXIT_OK


def cmd_family(args) -> int:
    fp = FamilyParams(n=args.n, s=args.s, k=args.k, l=args.l,
                      p_stab=args.pstab, q_stab=args.qstab)
    expect = exceptional_expectations(fp)
    d = families.exceptional_diagram(fp)
    print(f"family {fp}")
    print(f"lens space = L({fp.lens_order},{fp.s * fp.s})")
    print(f"tb = {expect.tb}")
    print(f"c2 = {expect.c2}")
    print(f"d3 = {fmt_q(expect.d3_sphere)}")
    print(f"euler = {expect.euler}")
    if args.emit:
        from .diagram import save_diagram
        save_diagram(d, args.emit)
        print(f"wrote {args.emit}")
    return EXIT_OK


def _print_census(c: families.TightStructureCensus) -> None:
    print(f"{c.lens}: expected tight structures = {c.expected_count}")
    print(f"{'source':<12} {'parameters':<28} {'d3':>8}  euler")
    for source, params, d3_value, residue in c.rows():
        print(f"{source:<12} {params:<28} {fmt_q(d3_value):>8}  {residue}")


def _census_ok(c: families.TightStructureCensus, indent: str = "") -> bool:
    """Run the census checks and the distinctness bounds; print failures."""
    problems = c.problems()
    if c.s >= 2 and not families.distinctness_bounds(c.n, c.s).all_pass():
        problems.append("distinctness bounds failed")
    for problem in problems:
        print(f"{indent}{problem}", file=sys.stderr)
    return not problems


def cmd_census(args) -> int:
    if args.grid:
        nmax, smax = args.grid
        failed = False
        for n in range(2, nmax + 1):
            for s in range(1, smax + 1):
                c = census(n, s)
                ok = _census_ok(c, indent="  ")
                count = len(c.standard) + len(c.exceptional)
                print(f"n={n} s={s} {c.lens}: {count} classes "
                      f"(expected {c.expected_count}) {'ok' if ok else 'FAIL'}")
                failed = failed or not ok
        return EXIT_CENSUS if failed else EXIT_OK
    c = census(args.n, args.s)
    _print_census(c)
    if not _census_ok(c):
        return EXIT_CENSUS
    print(f"census ok: {c.expected_count} distinct classes")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactsurg",
        description="Exact invariants of contact (+1/-1)-surgery diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="full invariant report for a diagram file")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("knot", help="tb and rot of the distinguished knot after surgery")
    p.add_argument("file")
    p.set_defaults(func=cmd_knot)

    p = sub.add_parser("contfrac", help="negative continued fraction of p/q")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_contfrac)

    p = sub.add_parser("tight-count", help="number of tight contact structures on L(p,q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_tight_count)

    p = sub.add_parser("family", help="closed forms for one exceptional family diagram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--pstab", type=int, required=True)
    p.add_argument("--qstab", type=int, required=True)
    p.add_argument("--emit", metavar="FILE", help="write the diagram as JSON")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("census", help="tight-structure census for L(n*s^2-s+1, s^2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--grid", nargs=2, type=int, metavar=("NMAX", "SMAX"),
                   help="verify the whole grid 2<=n<=NMAX, 1<=s<=SMAX")
    p.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingKnotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_KNOT
    except (NonTorsionEulerClassError, D3PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (DiagramError, LensSpaceError, FamilyParamsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
