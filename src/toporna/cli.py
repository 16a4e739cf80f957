"""Command-line front end with machine-readable output.

Subcommands cover counting (``count``, ``census``), series and polynomial
output (``series``, ``shapes``, ``irreducibles``), per-structure analysis
(``genus``, ``classify``, ``decompose``), numeric asymptotics (``clt``,
``expect``) and random generation (``sample``).  Every command echoes its
resolved parameters, renders exact integers as decimal strings, and
supports ``--format json|csv|plain``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import asymptotics, genfun, recursions
from .diagram import (
    block_decomposition,
    classify_component,
    crossing_components,
    emit_structure,
    parse_structure,
)
from .genfun import StructureClass
from .oracle import enumerate_diagrams, full_census
from .sampler import StructureSampler, empirical_stats, sample_enumerative

GENERATOR_ID = "python-random-mt19937"
GRAMMAR_LENGTH_CAP = 200


# -- output plumbing -------------------------------------------------------


#: Ints below this many bits print with plain ``str``: they stay under 640
#: digits, the lowest digit limit CPython lets a program set.
_STR_SAFE_BITS = 2000


def _decimal(value: int) -> str:
    """Decimal digits of an int of any length.

    ``str`` refuses ints beyond the interpreter's digit limit (4300 by
    default), which guards the parsing of input.  Longer ints are split at
    a power of ten into halves that are printed separately.
    """
    if value.bit_length() < _STR_SAFE_BITS:
        return str(value)
    if value < 0:
        return "-" + _decimal(-value)
    half = value.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(value, 10**half)
    return _decimal(high) + _decimal(low).rjust(half, "0")


def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)):
        return _text(value)
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _flatten(prefix: str, value, out: list) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        out.append({"key": prefix, "value": value})


def _emit(args, meta: dict, rows=None, values=None, lines=None) -> None:
    if args.format == "json":
        doc = {"meta": _jsonable(meta)}
        if rows is not None:
            doc["rows"] = _jsonable(rows)
        if values is not None:
            doc["values"] = _jsonable(values)
        if lines is not None:
            doc["samples" if meta.get("command") == "sample" else "lines"] = lines
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    if args.format == "csv":
        if rows is None:
            if values is not None:
                rows = []
                _flatten("", values, rows)
            else:
                rows = [{"structure": s} for s in lines or []]
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]) if rows else ["key"])
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _text(v) for k, v in row.items()})
        return
    # plain
    for key, val in meta.items():
        sys.stdout.write(f"# {key}={_text(val)}\n")
    if values is not None:
        flat: list = []
        _flatten("", values, flat)
        for row in flat:
            sys.stdout.write(f"{row['key']}: {_text(row['value'])}\n")
    if rows is not None:
        for row in rows:
            sys.stdout.write("  ".join(f"{k}={_text(v)}" for k, v in row.items()) + "\n")
    if lines is not None:
        for line in lines:
            sys.stdout.write(line + "\n")


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return _decimal(value)
    if isinstance(value, Fraction):
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    return str(value)


# -- shared argument handling ----------------------------------------------


def _class_of(args) -> StructureClass:
    return StructureClass(args.lam, args.r)


def _base_meta(args, command: str, **extra) -> dict:
    meta = {"command": command, "format": args.format}
    meta.update(extra)
    return meta


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


def _check_ceiling(n: int, args) -> None:
    if n > args.ceiling:
        raise ValueError(
            f"length {n} exceeds the enumeration ceiling {args.ceiling}; "
            "raise --ceiling (max 24) for larger brute-force runs"
        )


def _structures(args) -> list[tuple[str, object]]:
    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as handle:
            texts = [line.strip() for line in handle if line.strip()]
        if not texts:
            raise ValueError(f"no structures found in {args.file}")
    elif getattr(args, "structure", None) is not None:
        texts = [args.structure]
    else:
        raise ValueError("supply a structure argument or --file")
    return [(text, parse_structure(text)) for text in texts]


# -- command handlers ------------------------------------------------------


def _cmd_count(args) -> int:
    _at_least("n", args.n, 0)
    _at_least("--genus", args.genus, 0)
    cls_ = _class_of(args)
    meta = _base_meta(
        args, "count", n=args.n, genus=args.genus, min_arc=args.lam, min_stack=args.r
    )
    oracle_hist = None
    if args.oracle:
        _check_ceiling(args.n, args)
        oracle_hist: dict[int, int] = {}
        for d in enumerate_diagrams(args.n, args.lam, args.r, genus=args.genus):
            oracle_hist[len(d.arcs)] = oracle_hist.get(len(d.arcs), 0) + 1
        meta["oracle"] = True
    if args.arcs:
        dist = genfun.arc_distribution(cls_, args.genus, args.n)
        rows = []
        for k, c in enumerate(dist):
            if not c and (oracle_hist is None or not oracle_hist.get(k)):
                continue
            row = {"arcs": k, "count": c}
            if oracle_hist is not None:
                row["oracle_count"] = oracle_hist.get(k, 0)
                if row["oracle_count"] != c:
                    raise ArithmeticError(
                        f"series and oracle disagree at {k} arcs: "
                        f"{c} vs {row['oracle_count']}"
                    )
            rows.append(row)
        rows.append({"arcs": "total", "count": sum(dist)})
        _emit(args, meta, rows=rows)
        return 0
    total = genfun.structure_counts(cls_, args.genus, args.n + 1)[args.n]
    values = {"count": total}
    if oracle_hist is not None:
        values["oracle_count"] = sum(oracle_hist.values())
        if values["oracle_count"] != total:
            raise ArithmeticError(
                f"series and oracle disagree: {total} vs {values['oracle_count']}"
            )
        values["agree"] = True
    _emit(args, meta, values=values)
    return 0


def _cmd_series(args) -> int:
    _at_least("--order", args.order, 1)
    _at_least("--genus", args.genus, 0)
    cls_ = _class_of(args)
    meta = _base_meta(
        args,
        "series",
        family=args.family,
        genus=args.genus,
        order=args.order,
        min_arc=args.lam,
        min_stack=args.r,
    )
    if args.family == "d0":
        series = genfun.d0_series(cls_, args.order)
    elif args.family == "dg":
        series = genfun.dg_series(cls_, args.genus, args.order)
    else:
        series = recursions.chord_series(args.genus, args.order)
        del meta["min_arc"], meta["min_stack"]
    rows = [{"n": i, "coefficient": c} for i, c in enumerate(series.coeffs)]
    _emit(args, meta, rows=rows)
    return 0


def _cmd_shapes(args) -> int:
    meta = _base_meta(args, "shapes", genus=args.genus, mark=args.mark or "none")
    if args.mark:
        poly = recursions.marked_shape_poly(args.genus, args.mark)
        rows = [
            {"x_power": dx, "y_power": dy, "coefficient": c}
            for (dx, dy), c in sorted(poly.terms.items())
        ]
    else:
        poly = recursions.shape_poly(args.genus)
        rows = [
            {"x_power": i, "y_power": 0, "coefficient": c}
            for i, c in enumerate(poly.coeffs)
            if c
        ]
    _emit(args, meta, rows=rows)
    return 0


def _cmd_irreducibles(args) -> int:
    meta = _base_meta(args, "irreducibles", genus=args.genus, derived=args.derived)
    poly = recursions.irreducible_poly(args.genus, derived=args.derived)
    rows = [
        {"x_power": i, "coefficient": c} for i, c in enumerate(poly.coeffs) if c
    ]
    _emit(args, meta, rows=rows)
    return 0


def _cmd_genus(args) -> int:
    meta = _base_meta(args, "genus")
    rows = []
    for text, d in _structures(args):
        res = d.genus()
        rows.append(
            {
                "structure": text,
                "length": d.n,
                "arcs": len(d.arcs),
                "genus": res.genus,
                "boundary_components": res.boundary_components,
                "euler_characteristic": res.euler_characteristic,
            }
        )
    _emit(args, meta, rows=rows)
    return 0


def _cmd_classify(args) -> int:
    meta = _base_meta(args, "classify")
    rows = []
    for text, d in _structures(args):
        labels = []
        for indices in crossing_components(d):
            label, g = classify_component(d, indices)
            if label != "secondary":
                labels.append(label)
        rows.append(
            {
                "structure": text,
                "crossing_blocks": len(labels),
                "labels": "+".join(labels) if labels else "none",
            }
        )
    _emit(args, meta, rows=rows)
    return 0


def _block_dict(block) -> dict:
    return {
        "span": list(block.span),
        "arcs": len(block.arc_indices),
        "genus": block.genus,
        "label": block.label,
        "children": [_block_dict(c) for c in block.children],
    }


def _cmd_decompose(args) -> int:
    meta = _base_meta(args, "decompose")
    forest = [
        {"structure": text, "blocks": [_block_dict(b) for b in block_decomposition(d)]}
        for text, d in _structures(args)
    ]
    if args.format == "csv":
        rows = []
        for item in forest:
            stack = [(b, 0) for b in reversed(item["blocks"])]
            while stack:
                b, depth = stack.pop()
                rows.append(
                    {
                        "structure": item["structure"],
                        "depth": depth,
                        "span": f"{b['span'][0]}-{b['span'][1]}",
                        "arcs": b["arcs"],
                        "genus": b["genus"],
                        "label": b["label"],
                    }
                )
                stack.extend((c, depth + 1) for c in reversed(b["children"]))
        _emit(args, meta, rows=rows)
    else:
        _emit(args, meta, values={"structures": forest})
    return 0


def _cmd_clt(args) -> int:
    digits = args.digits
    if args.grid:
        meta = _base_meta(
            args, "clt", grid=True, max_arc=args.max_lam, max_stack=args.max_r
        )
        grid = asymptotics.mean_arc_grid(args.max_lam, args.max_r)
        rows = [
            {"min_arc": lam, "min_stack": r, "mean": f"{grid[(lam, r)]:.{digits}f}"}
            for (lam, r) in sorted(grid)
        ]
        _emit(args, meta, rows=rows)
        return 0
    cls_ = _class_of(args)
    meta = _base_meta(
        args, "clt", min_arc=args.lam, min_stack=args.r, precision=args.precision
    )
    law = asymptotics.arc_law(cls_, dps=args.precision)
    values = {
        "singularity": f"{float(law.rho):.{digits}f}",
        "mean_arc_fraction": f"{float(law.mean):.{digits}f}",
        "variance_fraction": f"{float(law.variance):.{digits}f}",
    }
    _emit(args, meta, values=values)
    return 0


def _cmd_expect(args) -> int:
    _at_least("--n", args.n, 0)
    _at_least("--genus", args.genus, 1)
    cls_ = _class_of(args)
    meta = _base_meta(
        args,
        "expect",
        kind=args.type,
        genus=args.genus,
        n=args.n,
        min_arc=args.lam,
        min_stack=args.r,
    )
    jet = genfun.pk_marked_dg_jet(cls_, args.genus, args.type, args.n + 1)
    exact = genfun.expected_marks(jet, args.n)
    values = {
        "expected_blocks": exact,
        "expected_blocks_float": float(exact),
    }
    if args.genus == 1 and (args.lam, args.r) == (1, 1):
        values["leading_term"] = float(
            asymptotics.genus1_type_probability(args.type, args.n)
        )
    _emit(args, meta, values=values)
    return 0


def _cmd_sample(args) -> int:
    _at_least("--count", args.count, 1)
    cls_ = _class_of(args)
    method = "enumerative" if args.enumerative else "grammar"
    meta = _base_meta(
        args,
        "sample",
        n=args.n,
        genus=args.genus,
        min_arc=args.lam,
        min_stack=args.r,
        count=args.count,
        seed="none" if args.seed is None else args.seed,
        generator=GENERATOR_ID,
        method=method,
    )
    if args.enumerative:
        _check_ceiling(args.n, args)
        draws = sample_enumerative(cls_, args.genus, args.n, args.count, args.seed)
    else:
        if args.n > GRAMMAR_LENGTH_CAP:
            raise ValueError(
                f"grammar sampling is capped at length {GRAMMAR_LENGTH_CAP}"
            )
        if args.genus >= 2 and min(6 * args.genus - 1, args.n // (2 * args.r)) > 8:
            raise ValueError(
                "the shape inventory beyond 8 arcs at genus >= 2 is too large "
                "to enumerate; lower n or use a larger --r"
            )
        sampler = StructureSampler(cls_, args.genus, args.n)
        draws = sampler.sample_many(args.n, args.count, args.seed)
    if args.stats:
        _emit(args, meta, values=empirical_stats(draws))
    else:
        _emit(args, meta, lines=[emit_structure(d) for d in draws])
    return 0


def _cmd_census(args) -> int:
    _at_least("--n", args.n, 0)
    _at_least("--max-genus", args.max_genus, 0)
    _check_ceiling(args.n, args)
    meta = _base_meta(
        args,
        "census",
        n=args.n,
        min_arc=args.lam,
        min_stack=args.r,
        max_genus=args.max_genus,
        threads=args.threads,
    )
    rows_by_genus = full_census(
        args.n,
        args.lam,
        args.r,
        max_genus=args.max_genus,
        processes=args.threads if args.threads > 1 else None,
    )
    rows = []
    for g, row in sorted(rows_by_genus.items()):
        flat = {"genus": g, "count": row["count"], "arcs": row["arcs"]}
        flat["arc_hist"] = ";".join(
            f"{k}:{v}" for k, v in sorted(row["arc_hist"].items())
        )
        for kind, v in row["loops"].items():
            flat[kind] = v
        for label, v in row["pk"].items():
            flat[f"pk_{label}"] = v
        rows.append(flat)
    _emit(args, meta, rows=rows)
    return 0


# -- parser ----------------------------------------------------------------


def _class_flags(p: argparse.ArgumentParser, genus_default: int = 0) -> None:
    p.add_argument("--genus", type=int, default=genus_default, help="target genus")
    p.add_argument(
        "--lambda",
        dest="lam",
        type=int,
        default=1,
        metavar="L",
        help="minimum span of a hairpin-closing arc",
    )
    p.add_argument("--r", type=int, default=1, help="minimum stack size")


def _structure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("structure", nargs="?", help="structure in dot-bracket form")
    p.add_argument("--file", help="read structures from a file, one per line")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "plain"), default="plain"
    )
    common.add_argument(
        "--precision", type=int, default=50, help="working digits (minimum 15)"
    )
    common.add_argument("--threads", type=int, default=1, help="worker cap")
    common.add_argument("--seed", type=int, default=None, help="sampler seed")
    common.add_argument(
        "--ceiling",
        type=int,
        default=18,
        help="brute-force enumeration ceiling (maximum 24)",
    )
    parser = argparse.ArgumentParser(
        prog="toporna",
        description="Exact enumeration, analysis and sampling of crossing-arc "
        "structures filtered by genus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="count structures of one length")
    p.add_argument("n", type=int, help="number of vertices")
    _class_flags(p)
    p.add_argument("--arcs", action="store_true", help="break down by arc number")
    p.add_argument(
        "--oracle", action="store_true", help="cross-check against enumeration"
    )
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("series", parents=[common], help="emit series coefficients")
    p.add_argument(
        "family",
        choices=("d0", "dg", "cg"),
        help="secondary, fixed-genus, or chord-matching series",
    )
    p.add_argument("--order", type=int, default=20, help="truncation order")
    _class_flags(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("shapes", parents=[common], help="shape-count polynomial")
    _class_flags(p, genus_default=1)
    p.add_argument(
        "--mark",
        choices=recursions.MARK_KINDS,
        help="mark crossing blocks of one type with the second variable",
    )
    p.set_defaults(func=_cmd_shapes)

    p = sub.add_parser(
        "irreducibles", parents=[common], help="irreducible shadow polynomial"
    )
    _class_flags(p, genus_default=1)
    p.add_argument(
        "--derived",
        action="store_true",
        help="rebuild from the shape recursion instead of the stored table",
    )
    p.set_defaults(func=_cmd_irreducibles)

    p = sub.add_parser("genus", parents=[common], help="genus of given structures")
    _structure_flags(p)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser(
        "classify", parents=[common], help="label crossing blocks of structures"
    )
    _structure_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "decompose", parents=[common], help="nested block decomposition"
    )
    _structure_flags(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "clt", parents=[common], help="singular point and arc-count law"
    )
    _class_flags(p)
    p.add_argument("--grid", action="store_true", help="emit the whole mean grid")
    p.add_argument("--max-lambda", dest="max_lam", type=int, default=6)
    p.add_argument("--max-r", dest="max_r", type=int, default=6)
    p.add_argument("--digits", type=int, default=4, help="printed digits")
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser(
        "expect", parents=[common], help="expected crossing blocks of one type"
    )
    p.add_argument("--type", required=True, choices=recursions.MARK_KINDS)
    p.add_argument("--n", type=int, required=True)
    _class_flags(p, genus_default=1)
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("sample", parents=[common], help="draw uniform structures")
    p.add_argument("--n", type=int, required=True)
    _class_flags(p, genus_default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument(
        "--enumerative",
        action="store_true",
        help="draw from the fully enumerated family instead of the grammar",
    )
    p.add_argument(
        "--stats", action="store_true", help="emit aggregate statistics only"
    )
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("census", parents=[common], help="brute-force census by genus")
    p.add_argument("--n", type=int, required=True)
    _class_flags(p)
    p.add_argument("--max-genus", dest="max_genus", type=int, default=2)
    p.set_defaults(func=_cmd_census)

    return parser


def _validate_config(args) -> None:
    if args.precision < 15:
        raise ValueError("precision must be at least 15 digits")
    if not 1 <= args.ceiling <= 24:
        raise ValueError("ceiling must lie in 1..24")
    if args.threads < 1:
        raise ValueError("threads must be positive")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_config(args)
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
