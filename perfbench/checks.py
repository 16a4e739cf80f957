"""Output checks; each returns ``None`` when an output is right, else the reason.

Exact results (``analytic`` and ``census``) are compared with a SHA-256
digest of their ``values``/``rows`` recorded from a trusted commit; ``meta``
is not compared.  Sampled structures are checked structure by structure, so
a sampler that draws other structures, equally uniformly, still passes.
"""

from __future__ import annotations

import hashlib
import json

from toporna.diagram import genus_of_partner, parse_structure, satisfies_constraints

PK_GENUS1 = ("H", "K", "L", "M")


def digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON of a document's ``values`` and ``rows``."""
    payload = {k: doc[k] for k in ("values", "rows") if k in doc}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_reference(doc: dict, expected: str | None) -> str | None:
    if expected is None:
        return "no reference value recorded for this request"
    if digest(doc) != expected:
        return "values/rows differ from the reference"
    return None


def _flag(argv: tuple[str, ...], name: str, default: int) -> int:
    return int(argv[argv.index(name) + 1]) if name in argv else default


def check_structure(text: str, n: int, genus: int, lam: int, r: int) -> str | None:
    """A sampled structure parses, has length ``n``, genus ``genus`` and meets (λ, r)."""
    try:
        d = parse_structure(text)
    except ValueError as exc:
        return f"{text!r} does not parse: {exc}"
    if d.n != n:
        return f"{text!r} has length {d.n}, not {n}"
    got = genus_of_partner(d.n, d.partner()).genus
    if got != genus:
        return f"{text!r} has genus {got}, not {genus}"
    if not satisfies_constraints(d, lam, r):
        return f"{text!r} violates lambda={lam} r={r}"
    return None


def check_sample(argv: tuple[str, ...], doc: dict) -> str | None:
    """Check a ``sample`` output against its own request."""
    n = _flag(argv, "--n", 0)
    genus = _flag(argv, "--genus", 0)
    lam = _flag(argv, "--lambda", 1)
    r = _flag(argv, "--r", 1)
    count = _flag(argv, "--count", 10)
    if "--stats" in argv:
        stats = doc.get("values", {})
        if int(stats.get("draws", -1)) != count:
            return f"stats report {stats.get('draws')} draws, not {count}"
        hist = {int(k): int(v) for k, v in stats["arc_hist"].items()}
        if sum(hist.values()) != count:
            return f"arc histogram sums to {sum(hist.values())}, not {count}"
        if sum(k * v for k, v in hist.items()) != int(stats["arcs"]):
            return "arc histogram disagrees with the arc total"
        blocks = sum(int(v) for v in stats["pk"].values())
        if genus <= 1 and blocks != genus * count:
            return f"{blocks} crossing blocks over {count} genus-{genus} draws"
        return None
    samples = doc.get("samples", [])
    if len(samples) != count:
        return f"{len(samples)} draws, not {count}"
    for text in samples:
        err = check_structure(text, n, genus, lam, r)
        if err:
            return err
    return None


def _block_genus(blocks: list[dict]) -> int:
    return sum(int(b["genus"]) + _block_genus(b["children"]) for b in blocks)


def check_on_sampled(command: str, structures: list[str], genus: int, doc: dict) -> str | None:
    """Check ``genus``, ``classify`` or ``decompose`` on structures of known genus."""
    if command == "decompose":
        items = doc.get("values", {}).get("structures", [])
        if [item["structure"] for item in items] != structures:
            return "decompose lists other structures than it was given"
        for item in items:
            total = _block_genus(item["blocks"])
            if total != genus:
                return f"blocks of {item['structure']!r} add up to genus {total}, not {genus}"
        return None
    rows = doc.get("rows", [])
    if [row["structure"] for row in rows] != structures:
        return f"{command} lists other structures than it was given"
    for text, row in zip(structures, rows):
        d = parse_structure(text)
        if command == "genus":
            if (int(row["length"]), int(row["arcs"]), int(row["genus"])) != (d.n, len(d.arcs), genus):
                return f"genus row {row} is wrong for {text!r} of genus {genus}"
            if int(row["euler_characteristic"]) != 2 - 2 * genus:
                return f"Euler characteristic {row['euler_characteristic']} at genus {genus}"
        else:
            blocks = int(row["crossing_blocks"])
            labels = [] if row["labels"] == "none" else row["labels"].split("+")
            allowed = range(1, genus + 1) if genus else range(1)
            if len(labels) != blocks or blocks not in allowed:
                return f"{blocks} crossing blocks ({row['labels']}) at genus {genus}"
            if genus == 1 and labels[0] not in PK_GENUS1:
                return f"genus-1 block labelled {labels[0]!r}"
    return None
