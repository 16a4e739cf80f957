"""Command-line front end with machine-readable output.

Subcommands cover counting (``count``, ``census``), series and polynomial
output (``series``, ``shapes``, ``irreducibles``), per-structure analysis
(``genus``, ``classify``, ``decompose``), numeric asymptotics (``clt``,
``expect``) and random generation (``sample``).  Every command echoes its
resolved parameters, renders exact integers as decimal strings, and
supports ``--format json|csv|plain``.

:func:`main` parses with one parser per process, built on its first call
and reused by every later one, so it is safe and cheap to call repeatedly
in one process: every default is immutable, each parse returns a fresh
namespace, a refused argv leaves the parser as it was, and ``--help``
reads the terminal width when it prints.  :func:`build_parser` still
returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction

from . import genfun, recursions
from .diagram import (
    block_decomposition,
    classify_component,
    crossing_components,
    emit_structure,
    parse_structure,
)
from .genfun import StructureClass
from .oracle import full_census
from .sampler import StructureSampler, empirical_stats, inventory_cap, sample_enumerative

GENERATOR_ID = "python-random-mt19937"
GRAMMAR_LENGTH_CAP = 200
CEILING_MAX = 24
CLT_DIGITS_CAP = 100


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


def _class_of(args, genus: int = 0) -> StructureClass:
    """The class of ``--lambda`` and ``--r``; at positive genus it must inflate."""
    _at_least("--lambda", args.lam, 1)
    _at_least("--r", args.r, 1)
    cls_ = StructureClass(args.lam, args.r)
    if genus:
        try:
            genfun.require_inflatable(cls_)
        except ValueError:
            raise ValueError(
                "--lambda must be at most --r + 1 at positive genus; "
                f"got --lambda {args.lam}, --r {args.r}"
            ) from None
    return cls_


def _base_meta(args, command: str, **extra) -> dict:
    meta = {"command": command, "format": args.format}
    meta.update(extra)
    return meta


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


def _ceiling(args) -> int:
    if not 1 <= args.ceiling <= CEILING_MAX:
        raise ValueError(f"--ceiling must lie in 1..{CEILING_MAX}, got {args.ceiling}")
    return args.ceiling


def _check_ceiling(n: int, ceiling: int) -> None:
    if n > ceiling:
        raise ValueError(
            f"length {n} exceeds the enumeration ceiling {ceiling}; "
            f"raise --ceiling (max {CEILING_MAX}) for larger brute-force runs"
        )


def _structures(args) -> list[tuple[str, object]]:
    """The structure argument, or each nonblank line of ``--file``, parsed."""
    if args.file is None:
        if args.structure is None:
            raise ValueError("supply a structure argument or --file")
        return [(args.structure, parse_structure(args.structure))]
    if args.structure is not None:
        raise ValueError(
            f"supply a structure argument or --file, not both: got {args.structure!r} "
            f"and --file {args.file}"
        )
    parsed = []
    with open(args.file, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if text := line.strip():
                try:
                    parsed.append((text, parse_structure(text)))
                except ValueError as exc:
                    raise ValueError(f"{args.file}, line {number}: {exc}") from None
    if not parsed:
        raise ValueError(f"no structures found in {args.file}")
    return parsed


# -- command handlers ------------------------------------------------------


def _cmd_count(args) -> int:
    _at_least("n", args.n, 0)
    _at_least("--genus", args.genus, 0)
    ceiling = _ceiling(args)
    cls_ = _class_of(args, args.genus)
    meta = _base_meta(
        args, "count", n=args.n, genus=args.genus, min_arc=args.lam, min_stack=args.r
    )
    oracle_row: dict | None = None
    if args.oracle:
        _check_ceiling(args.n, ceiling)
        oracle_row = full_census(args.n, args.lam, args.r, args.genus)[args.genus]
        meta["oracle"] = True
    if args.arcs:
        dist = genfun.arc_distribution(cls_, args.genus, args.n)
        rows = []
        for k, c in enumerate(dist):
            if not c and (oracle_row is None or not oracle_row["arc_hist"].get(k)):
                continue
            row = {"arcs": k, "count": c}
            if oracle_row is not None:
                row["oracle_count"] = oracle_row["arc_hist"].get(k, 0)
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
    if oracle_row is not None:
        values["oracle_count"] = oracle_row["count"]
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
    cls_ = _class_of(args, args.genus if args.family == "dg" else 0)
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
    _at_least("--genus", args.genus, 0)
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
    _at_least("--genus", args.genus, 1)
    meta = _base_meta(args, "irreducibles", genus=args.genus)
    poly = recursions.irreducible_poly(args.genus)
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
    if args.format == "json":
        _emit(args, meta, values={"structures": forest})
        return 0
    rows = []  # one per block, depth first
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
    if args.format == "csv":
        _emit(args, meta, rows=rows)
    else:  # plain: the same fields, each block indented by its depth
        lines = [
            "  " * row["depth"] + "  ".join(f"{k}={_text(v)}" for k, v in row.items())
            for row in rows
        ]
        _emit(args, meta, lines=lines)
    return 0


def _cmd_clt(args) -> int:
    from . import asymptotics

    digits = args.digits
    if not 1 <= digits <= CLT_DIGITS_CAP:
        raise ValueError(f"--digits must lie in 1..{CLT_DIGITS_CAP}, got {digits}")
    _at_least("--max-lambda", args.max_lam, 1)
    _at_least("--max-r", args.max_r, 1)
    cls_ = _class_of(args)
    if args.grid:
        meta = _base_meta(
            args, "clt", grid=True, max_arc=args.max_lam, max_stack=args.max_r
        )
        grid = asymptotics.arc_law_grid(args.max_lam, args.max_r, digits)
        rows = [
            {"min_arc": lam, "min_stack": r, "mean": law.decimal("mean", digits)}
            for (lam, r), law in sorted(grid.items())
        ]
        _emit(args, meta, rows=rows)
        return 0
    meta = _base_meta(args, "clt", min_arc=args.lam, min_stack=args.r)
    law = asymptotics.arc_law(cls_, dps=digits)
    values = {
        "singularity": law.decimal("rho", digits),
        "mean_arc_fraction": law.decimal("mean", digits),
        "variance_fraction": law.decimal("variance", digits),
    }
    _emit(args, meta, values=values)
    return 0


def _cmd_expect(args) -> int:
    from . import asymptotics

    _at_least("--n", args.n, 0)
    _at_least("--genus", args.genus, 1)
    cls_ = _class_of(args, args.genus)
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
        # The four limits sum to 1 but only lie in [0, 1] from n = 35 on;
        # below that they are no probabilities, and none is printed.
        limits = {
            kind: asymptotics.genus1_type_probability(kind, args.n)
            for kind in asymptotics.GENUS1_TYPE_NUMERATORS
        }
        if all(0 <= p <= 1 for p in limits.values()):
            values["leading_term"] = float(limits[args.type])
    _emit(args, meta, values=values)
    return 0


def _cmd_sample(args) -> int:
    _at_least("--n", args.n, 0)
    _at_least("--genus", args.genus, 0)
    _at_least("--count", args.count, 1)
    ceiling = _ceiling(args)
    cls_ = _class_of(args, 0 if args.enumerative else args.genus)
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
        _check_ceiling(args.n, ceiling)
        draws = sample_enumerative(cls_, args.genus, args.n, args.count, args.seed)
    else:
        if args.n > GRAMMAR_LENGTH_CAP:
            raise ValueError(
                f"grammar sampling is capped at length {GRAMMAR_LENGTH_CAP}"
            )
        if args.genus >= 2 and inventory_cap(args.genus, args.n, args.r) > 8:
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
    _check_ceiling(args.n, _ceiling(args))
    cls_ = _class_of(args)
    meta = _base_meta(
        args,
        "census",
        n=args.n,
        min_arc=args.lam,
        min_stack=args.r,
        max_genus=args.max_genus,
    )
    rows_by_genus = full_census(
        args.n, cls_.min_arc, cls_.min_stack, max_genus=args.max_genus
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


def _genus_flag(p: argparse.ArgumentParser, default: int = 0) -> None:
    p.add_argument("--genus", type=int, default=default, help="target genus")


def _class_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--lambda",
        dest="lam",
        type=int,
        default=1,
        metavar="L",
        help="minimum span of a hairpin-closing arc",
    )
    p.add_argument("--r", type=int, default=1, help="minimum stack size")


def _ceiling_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--ceiling",
        type=int,
        default=18,
        help=f"brute-force enumeration ceiling (maximum {CEILING_MAX})",
    )


def _structure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("structure", nargs="?", help="structure in dot-bracket form")
    p.add_argument("--file", help="read structures from a file, one per line")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "plain"), default="plain"
    )
    parser = argparse.ArgumentParser(
        prog="toporna",
        description="Exact enumeration, analysis and sampling of crossing-arc "
        "structures filtered by genus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="count structures of one length")
    p.add_argument("n", type=int, help="number of vertices")
    _genus_flag(p)
    _class_flags(p)
    p.add_argument("--arcs", action="store_true", help="break down by arc number")
    p.add_argument(
        "--oracle", action="store_true", help="cross-check against enumeration"
    )
    _ceiling_flag(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("series", parents=[common], help="emit series coefficients")
    p.add_argument(
        "family",
        choices=("d0", "dg", "cg"),
        help="secondary, fixed-genus, or chord-matching series",
    )
    p.add_argument("--order", type=int, default=20, help="truncation order")
    _genus_flag(p)
    _class_flags(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("shapes", parents=[common], help="shape-count polynomial")
    _genus_flag(p, default=1)
    p.add_argument(
        "--mark",
        choices=recursions.MARK_KINDS,
        help="mark crossing blocks of one type with the second variable",
    )
    p.set_defaults(func=_cmd_shapes)

    p = sub.add_parser(
        "irreducibles", parents=[common], help="irreducible shadow polynomial"
    )
    _genus_flag(p, default=1)
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
    p.add_argument(
        "--digits",
        type=int,
        default=4,
        help=f"printed decimal places, 1 to {CLT_DIGITS_CAP}; each one is certified",
    )
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser(
        "expect", parents=[common], help="expected crossing blocks of one type"
    )
    p.add_argument("--type", required=True, choices=recursions.MARK_KINDS)
    p.add_argument("--n", type=int, required=True)
    _genus_flag(p, default=1)
    _class_flags(p)
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("sample", parents=[common], help="draw uniform structures")
    p.add_argument("--n", type=int, required=True)
    _genus_flag(p)
    _class_flags(p)
    p.add_argument("--count", type=int, default=10)
    p.add_argument(
        "--enumerative",
        action="store_true",
        help="draw from the fully enumerated family instead of the grammar",
    )
    p.add_argument(
        "--stats", action="store_true", help="emit aggregate statistics only"
    )
    p.add_argument("--seed", type=int, default=None, help="sampler seed")
    _ceiling_flag(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("census", parents=[common], help="brute-force census by genus")
    p.add_argument("--n", type=int, required=True)
    _class_flags(p)
    p.add_argument("--max-genus", dest="max_genus", type=int, default=2)
    _ceiling_flag(p)
    p.set_defaults(func=_cmd_census)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
