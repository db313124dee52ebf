"""Command-line interface.

Exit codes: 0 success, 1 verification failure (a report says "no"),
2 usage error (bad arguments, malformed sector or polynomial).  Rational
arguments use the exact "p/q" text form throughout; no decimals.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import classify as run_classify
from .codec import MIN_VERIFY_N, make_scheme
from .errors import SectorPackError
from .polynomials import Direction, QuadPoly, construct
from .render import RenderSpec, render
from .sectors import LatticePoint, Quadrant, parse_sector, t_dual, w_reduce
from .sweep import sweep
from .verify import SearchParams, prefix_check, search


class UsageError(Exception):
    pass


def _sector_arg(text: str):
    try:
        return parse_sector(text)
    except (ValueError, SectorPackError) as exc:
        raise UsageError(str(exc)) from exc


def _poly_arg(text: str) -> QuadPoly:
    try:
        return QuadPoly.from_string(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from exc


def _point_arg(text: str) -> LatticePoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"cannot parse point {text!r}; expected x,y")
    try:
        x, y = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if x < 0 or y < 0:
        raise UsageError("point coordinates must be nonnegative")
    return LatticePoint(x, y)


def cmd_classify(args) -> int:
    s = _sector_arg(args.sector)
    result = run_classify(s.n, s.m)
    if args.json:
        print(json.dumps(result.to_json_dict()))
        return 0
    if not result.entries:
        print(f"S({s}): no quadratic packing polynomials")
        return 0
    print(f"S({s}): {len(result.entries)} quadratic packing polynomial(s)")
    for entry in result.entries:
        origin = entry.provenance.value
        if entry.transport is not None:
            target = entry.transport.target
            label = target if isinstance(target, Quadrant) else f"S({target})"
            origin += f" (from {label})"
        print(
            f"  k={entry.form.k} {entry.form.direction.value:<4} f={entry.form.offset_f:<3} "
            f"{entry.poly.pretty()}   [{origin}]"
        )
    return 0


def cmd_construct(args) -> int:
    s = _sector_arg(args.sector)
    direction = Direction.ASCENDING if args.direction == "asc" else Direction.DESCENDING
    try:
        poly, form = construct(s, args.k, direction)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except SectorPackError as exc:
        print(f"cannot construct: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {
                    "sector": str(s),
                    "poly": poly.to_string(),
                    "k": form.k,
                    "direction": form.direction.value,
                    "q": form.q,
                    "f": form.offset_f,
                }
            )
        )
    else:
        print(poly.to_string())
    return 0


def cmd_verify(args) -> int:
    s = _sector_arg(args.sector)
    poly = _poly_arg(args.poly)
    try:
        report = prefix_check(s, poly, args.prefix)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except SectorPackError as exc:
        print(f"cannot verify: {exc}", file=sys.stderr)
        return 1
    print(report.describe())
    return 0 if report.ok else 1


def _scheme_from_args(args):
    s = _sector_arg(args.sector)
    poly = _poly_arg(args.poly)
    if args.verify_n < 0:
        raise UsageError("--verify-n must be nonnegative")
    try:
        return make_scheme(s, poly, args.verify_n)
    except (ValueError, SectorPackError) as exc:
        print(f"cannot build scheme: {exc}", file=sys.stderr)
        return None


def cmd_encode(args) -> int:
    scheme = _scheme_from_args(args)
    if scheme is None:
        return 1
    point = _point_arg(args.point)
    try:
        print(scheme.encode(point))
    except SectorPackError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def cmd_decode(args) -> int:
    scheme = _scheme_from_args(args)
    if scheme is None:
        return 1
    if args.value < 0:
        raise UsageError("value must be nonnegative")
    point = scheme.decode(args.value)
    print(f"{point.x},{point.y}")
    return 0


def _search_params(args) -> SearchParams:
    try:
        return SearchParams(
            prefix_n=args.prefix,
            max_k=args.max_k,
            offset_range=args.offset_range,
            raw_grid_bound=args.raw,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_search(args) -> int:
    s = _sector_arg(args.sector)
    params = _search_params(args)
    results = search(s, params)
    print(f"S({s}): {len(results)} polynomial(s) verified to N={args.prefix}")
    for poly in results:
        print(f"  {poly.to_string()}")
    return 0


def cmd_sweep(args) -> int:
    params = _search_params(args)
    try:
        report = sweep(args.max_n, args.max_m, params, workers=args.workers)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.write(report.to_csv())
    return 0 if report.ok else 1


def cmd_reduce(args) -> int:
    s = _sector_arg(args.sector)
    target, mapping = w_reduce(s)
    if args.json:
        print(json.dumps({"target": str(target), "map": mapping.to_json_dict()}))
    else:
        print(f"S({s}) -> S({target}) via {json.dumps(mapping.to_json_dict())}")
    return 0


def cmd_dual(args) -> int:
    s = _sector_arg(args.sector)
    try:
        target, mapping = t_dual(s)
    except SectorPackError as exc:
        print(f"no dual: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"target": str(target), "map": mapping.to_json_dict()}))
    else:
        print(f"S({s}) -> S({target}) via {json.dumps(mapping.to_json_dict())}")
    return 0


def cmd_render(args) -> int:
    spec = RenderSpec(
        sector=_sector_arg(args.sector),
        poly=_poly_arg(args.poly),
        max_x=args.max_x,
        format=args.format,
        cell_labels=not args.no_labels,
        color=args.color,
    )
    try:
        sys.stdout.write(render(spec))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return 0


def _add_search_args(p: argparse.ArgumentParser, raw: int) -> None:
    """The SearchParams options, with its defaults except for --raw."""
    defaults = SearchParams()
    p.add_argument("--prefix", type=int, default=defaults.prefix_n)
    p.add_argument("--max-k", type=int, default=defaults.max_k, dest="max_k")
    p.add_argument("--offset-range", type=int, default=defaults.offset_range, dest="offset_range")
    p.add_argument("--raw", type=int, default=raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectorpack",
        description="Quadratic packing polynomials on rational sectors S(n/m)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="list every packing polynomial on S(n/m)")
    p.add_argument("sector")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("construct", help="build the k-stair packing polynomial")
    p.add_argument("sector")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--direction", choices=("asc", "desc"), default="asc")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="prefix-check a polynomial on a sector")
    p.add_argument("sector")
    p.add_argument("--poly", required=True, help='six rationals "a b c2 d e f"')
    p.add_argument("--prefix", type=int, default=500)
    p.set_defaults(func=cmd_verify)

    for name, func in (("encode", cmd_encode), ("decode", cmd_decode)):
        p = sub.add_parser(name, help=f"{name} through a pairing scheme")
        p.add_argument("sector")
        p.add_argument("--poly", required=True)
        p.add_argument("--verify-n", type=int, default=MIN_VERIFY_N, dest="verify_n")
        if name == "encode":
            p.add_argument("--point", required=True, help="x,y")
        else:
            p.add_argument("--value", type=int, required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("search", help="brute-force search for packing polynomials")
    p.add_argument("sector")
    _add_search_args(p, raw=0)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="search-vs-classify report over a range")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--max-m", type=int, required=True, dest="max_m")
    _add_search_args(p, raw=40)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reduce", help="shear S(n/m) to its slope >= 1 representative")
    p.add_argument("sector")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("dual", help="duality map to S(n/(n+2-m))")
    p.add_argument("sector")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("render", help="labeled lattice figure (text or SVG)")
    p.add_argument("sector")
    p.add_argument("--poly", required=True)
    p.add_argument("--max-x", type=int, required=True, dest="max_x")
    p.add_argument("--format", choices=("text", "svg"), default="text")
    p.add_argument("--no-labels", action="store_true", dest="no_labels")
    p.add_argument("--color", default="#000000")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SectorPackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the requested size does not fit in memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
