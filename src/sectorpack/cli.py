"""Command-line interface.

Exit codes: 0 success, 1 verification failure (a report says "no"),
2 usage error (bad arguments, malformed sector or polynomial).  Rational
arguments use the exact "p/q" text form throughout; no decimals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import SectorPackError

# Each command imports the modules it runs when it runs, so building the
# parser loads none of them and `reduce` never compiles the oracle.


class UsageError(Exception):
    pass


def _sector_arg(text: str):
    from .sectors import parse_sector

    try:
        return parse_sector(text)
    except (ValueError, SectorPackError) as exc:
        raise UsageError(str(exc)) from exc


def _poly_arg(text: str):
    from .polynomials import QuadPoly

    try:
        return QuadPoly.from_string(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from exc


def _point_arg(text: str):
    from .sectors import LatticePoint

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
    from .classify import classify
    from .sectors import Quadrant

    s = _sector_arg(args.sector)
    result = classify(s.n, s.m)
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
    from .polynomials import Direction, construct

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


# prefix_check holds up to about 350 bytes per line it walks: a tracemalloc
# peak of 9.0 MB for the 31,624 lines of 8/5 "4 -4 1 -1 1 0" at depth 10**9,
# and 11.1 MB for 8/5 "4 -4 1 -1 3 0", a duplicate, which sorts its lines
# into scan order.
_BYTES_PER_LINE = 350


def _check_depth(s, poly, n_max: int, option: str) -> None:
    """Refuse a depth, given as ``option``, whose walk would hold more than
    physical memory."""
    from .verify import _walk_lines

    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    lines = _walk_lines(s, poly, n_max)
    if lines * _BYTES_PER_LINE > memory:
        raise UsageError(
            f"{option} {n_max} would walk {lines} lines, about "
            f"{lines * _BYTES_PER_LINE / 1e9:.3g} GB; this machine has {memory / 1e9:.3g} GB"
        )


def cmd_verify(args) -> int:
    from .verify import prefix_check

    s = _sector_arg(args.sector)
    poly = _poly_arg(args.poly)
    try:
        if poly.is_integer_valued():
            _check_depth(s, poly, args.prefix, "--prefix")
        report = prefix_check(s, poly, args.prefix)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except SectorPackError as exc:
        print(f"cannot verify: {exc}", file=sys.stderr)
        return 1
    print(report.describe())
    return 0 if report.ok else 1


def _scheme_from_args(args):
    from .codec import MIN_VERIFY_N, make_scheme

    s = _sector_arg(args.sector)
    poly = _poly_arg(args.poly)
    verify_n = MIN_VERIFY_N if args.verify_n is None else args.verify_n
    if verify_n < 0:
        raise UsageError("--verify-n must be nonnegative")
    try:
        if poly.is_integer_valued():
            _check_depth(s, poly, max(verify_n, MIN_VERIFY_N), "--verify-n")
        return make_scheme(s, poly, verify_n)
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


def _search_params(args):
    """SearchParams from the options given; its own defaults fill the rest."""
    from .verify import SearchParams

    given = {
        "prefix_n": args.prefix,
        "max_k": args.max_k,
        "offset_range": args.offset_range,
        "raw_grid_bound": args.raw,
    }
    try:
        return SearchParams(**{key: value for key, value in given.items() if value is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_search(args) -> int:
    from .verify import search

    s = _sector_arg(args.sector)
    params = _search_params(args)
    results = search(s, params)
    print(f"S({s}): {len(results)} polynomial(s) verified to N={params.prefix_n}")
    for poly in results:
        print(f"  {poly.to_string()}")
    return 0


def cmd_sweep(args) -> int:
    from .sweep import sweep

    params = _search_params(args)
    try:
        report = sweep(args.max_n, args.max_m, params, workers=args.workers)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.write(report.to_csv())
    return 0 if report.ok else 1


def cmd_reduce(args) -> int:
    from .sectors import w_reduce

    s = _sector_arg(args.sector)
    target, mapping = w_reduce(s)
    if args.json:
        print(json.dumps({"target": str(target), "map": mapping.to_json_dict()}))
    else:
        print(f"S({s}) -> S({target}) via {json.dumps(mapping.to_json_dict())}")
    return 0


def cmd_dual(args) -> int:
    from .sectors import t_dual

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
    from .render import RenderSpec, render

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
    """The SearchParams options; an option left out takes SearchParams'
    default when the command runs, except --raw."""
    p.add_argument("--prefix", type=int)
    p.add_argument("--max-k", type=int, dest="max_k")
    p.add_argument("--offset-range", type=int, dest="offset_range")
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
        # left out: codec.MIN_VERIFY_N, read when the command runs
        p.add_argument("--verify-n", type=int, dest="verify_n")
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
