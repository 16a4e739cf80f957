"""Request menus of the three workloads and the seeded choice of one pass.

A menu is a list of slots.  Every option of a slot costs about the same (a
narrow band of lengths or orders, another genus cap, loop kind, number of
printed digits or sampler seed), so passes drawn with different seeds do
comparable work, while no two requests of one pass are the same.  A pass takes one option from every
slot and shuffles them.

Three kinds of request exist:

* ``Cli``: an argv for ``toporna.cli.main``;
* ``Lib``: a moment family that has no CLI route, called as library code;
* ``OnSampled``: ``genus``, ``classify`` or ``decompose --file`` on
  structures drawn with the library sampler while the pass is set up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("analytic", "census", "sample")


@dataclass(frozen=True)
class Cli:
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Lib:
    """``marks_variance(loop_marked_dg_jet(...))`` or ``expected_marks(dg_jet(...))``.

    ``mark`` is a loop kind for the first family and ``None`` for the second;
    the statistic is read at length ``order - 1``.
    """

    family: str
    lam: int
    r: int
    genus: int
    mark: str | None
    order: int

    @property
    def key(self) -> str:
        mark = f" {self.mark}" if self.mark else ""
        return f"lib {self.family} {self.lam} {self.r} {self.genus}{mark} {self.order}"


@dataclass(frozen=True)
class OnSampled:
    """A per-structure command on ``count`` structures sampled during set-up."""

    command: str
    lam: int
    r: int
    genus: int
    n: int
    count: int
    seed: int

    @property
    def key(self) -> str:
        return (
            f"{self.command} sampled lambda={self.lam} r={self.r} genus={self.genus} "
            f"n={self.n} count={self.count} seed={self.seed}"
        )


def _cli(*words) -> Cli:
    return Cli(tuple(str(w) for w in words) + ("--format", "json"))


def _cls(lam: int, r: int) -> tuple[str, ...]:
    return ("--lambda", str(lam), "--r", str(r))


def _count(lam, r, genus, lengths, *extra):
    return [_cli("count", n, "--genus", genus, *_cls(lam, r), *extra) for n in lengths]


def _rng(lo: int, hi: int) -> range:
    return range(lo, hi + 1)


def _analytic() -> list[list]:
    return [
        # exact counts: the dg series at order n + 1
        _count(1, 1, 0, _rng(52, 54)),
        _count(1, 1, 1, _rng(102, 104)),
        _count(1, 1, 2, _rng(152, 154)),
        _count(1, 1, 1, _rng(200, 204)),
        _count(1, 1, 2, _rng(296, 300)),
        _count(1, 1, 0, _rng(396, 400)),
        _count(1, 1, 2, _rng(396, 400)),
        _count(1, 1, 0, _rng(795, 800)),
        _count(2, 1, 0, _rng(202, 204)),
        _count(2, 1, 1, _rng(250, 254)),
        _count(2, 1, 2, _rng(102, 104)),
        _count(2, 1, 2, _rng(346, 350)),
        _count(1, 2, 0, _rng(122, 124)),
        _count(1, 2, 1, _rng(300, 304)),
        _count(1, 2, 2, _rng(62, 64)),
        _count(1, 2, 2, _rng(396, 400)),
        _count(2, 2, 1, _rng(82, 84)),
        _count(2, 2, 2, _rng(200, 204)),
        _count(2, 2, 0, _rng(795, 800)),
        _count(2, 2, 1, _rng(596, 600)),
        # exact expected crossing blocks of one type
        [_cli("expect", "--type", "H", "--n", n, *_cls(1, 1)) for n in _rng(102, 104)],
        [_cli("expect", "--type", "K", "--n", n, *_cls(2, 1)) for n in _rng(200, 204)],
        [_cli("expect", "--type", "L", "--n", n, *_cls(1, 2)) for n in _rng(300, 304)],
        [_cli("expect", "--type", "M", "--n", n, *_cls(1, 1)) for n in _rng(396, 400)],
        [
            _cli("expect", "--type", "K", "--n", n, "--genus", 2, *_cls(1, 1))
            for n in _rng(152, 154)
        ],
        # whole coefficient lists
        [_cli("series", "dg", "--genus", 0, "--order", o, *_cls(2, 1)) for o in _rng(495, 500)],
        [_cli("series", "dg", "--genus", 1, "--order", o, *_cls(1, 1)) for o in _rng(296, 300)],
        [_cli("series", "dg", "--genus", 2, "--order", o, *_cls(1, 1)) for o in _rng(596, 600)],
        # the bivariate kernel
        _count(1, 1, 0, _rng(78, 80), "--arcs"),
        _count(1, 1, 1, _rng(40, 41), "--arcs"),
        _count(2, 1, 2, _rng(50, 51), "--arcs"),
        # limit laws
        [
            _cli("clt", *_cls(lam, r), "--digits", d)
            for lam, r in ((1, 2), (2, 2), (3, 3))
            for d in (4, 6)
        ],
        [
            _cli("clt", "--grid", "--max-lambda", 5, "--max-r", 5, "--digits", d)
            for d in _rng(4, 8)
        ],
        # moment families without a CLI route
        # the cost depends on the marked loop kind, so each slot holds kinds of like cost
        [Lib("loop_variance", 1, 1, 1, kind, 60) for kind in ("stack", "bulge", "multi")],
        [Lib("loop_variance", 2, 2, 0, kind, 98) for kind in ("hairpin", "bulge", "interior")],
        [Lib("arc_mean", 1, 1, 1, None, o) for o in _rng(296, 300)],
        [Lib("arc_mean", 2, 1, 2, None, o) for o in _rng(198, 200)],
        [Lib("arc_mean", 1, 2, 0, None, o) for o in _rng(399, 401)],
    ]


def _census() -> list[list]:
    def census(lam, r, n, genera):
        return [
            _cli("census", "--n", n, *_cls(lam, r), "--max-genus", g) for g in genera
        ]

    def oracle(lam, r, n, genera):
        return [
            _cli("count", n, "--genus", g, *_cls(lam, r), "--oracle") for g in genera
        ]

    # genus caps of like cost share a slot; costlier or cheaper ones get their own
    return [
        census(1, 1, 8, (0, 1, 2)),
        census(1, 1, 9, (0,)),
        census(1, 1, 9, (1, 2)),
        census(1, 1, 10, (1, 2)),
        census(1, 1, 11, (1, 2)),
        census(1, 1, 12, (0,)),
        census(2, 1, 8, (0, 1, 2)),
        census(2, 1, 9, (1, 2)),
        census(2, 1, 10, (1, 2)),
        census(2, 1, 11, (1,)),
        census(2, 1, 11, (2,)),
        census(2, 1, 12, (0,)),
        census(1, 2, 10, (0, 1, 2)),
        census(1, 2, 11, (0, 1, 2)),
        census(1, 2, 12, (1, 2)),
        census(1, 2, 13, (1, 2)),
        census(1, 2, 14, (1, 2)),
        census(1, 2, 15, (1, 2)),
        census(1, 2, 16, (1, 2)),
        census(2, 2, 12, (0, 1, 2)),
        census(2, 2, 13, (1, 2)),
        census(2, 2, 14, (1, 2)),
        census(2, 2, 15, (1, 2)),
        census(2, 2, 16, (1, 2)),
        oracle(1, 1, 8, (1, 2)),
        oracle(1, 1, 9, (1, 2)),
        oracle(1, 1, 10, (1, 2)),
        oracle(1, 1, 11, (0,)),
        oracle(2, 1, 9, (1, 2)),
        oracle(2, 1, 10, (1, 2)),
        oracle(2, 1, 11, (1,)),
        oracle(1, 2, 10, (0, 1, 2)),
        oracle(1, 2, 11, (0, 1, 2)),
        oracle(2, 2, 10, (0, 1, 2)),
        oracle(2, 2, 11, (0, 1, 2)),
    ]


SAMPLER_SEEDS = _rng(1, 100)


def _sample() -> list[list]:
    def draws(lam, r, genus, lengths, count, *extra):
        return [
            _cli(
                "sample", "--n", n, "--genus", genus, *_cls(lam, r),
                "--count", count, "--seed", s, *extra,
            )
            for n in lengths
            for s in SAMPLER_SEEDS
        ]

    def on_sampled(command, lam, r, genus, n, count):
        return [OnSampled(command, lam, r, genus, n, count, s) for s in SAMPLER_SEEDS]

    return [
        # one draw: the table build dominates
        draws(1, 1, 1, _rng(198, 200), 1),
        draws(1, 1, 0, _rng(198, 200), 1),
        draws(1, 1, 0, _rng(102, 104), 1),
        draws(2, 1, 1, _rng(148, 150), 1),
        draws(2, 1, 0, _rng(148, 150), 1),
        draws(1, 2, 1, _rng(98, 100), 1),
        draws(1, 2, 1, _rng(148, 150), 1),
        draws(2, 2, 0, _rng(198, 200), 1),
        draws(1, 1, 1, _rng(53, 55), 1),
        # many draws: the draws dominate
        draws(1, 1, 1, _rng(102, 104), 500),
        draws(1, 1, 1, _rng(152, 154), 100),
        draws(1, 1, 0, _rng(198, 200), 500),
        draws(2, 1, 1, _rng(102, 104), 200),
        draws(1, 2, 0, _rng(198, 200), 200),
        draws(2, 2, 1, _rng(148, 150), 500),
        draws(2, 2, 1, _rng(62, 64), 300),
        draws(2, 1, 0, _rng(53, 55), 1000),
        draws(1, 1, 1, _rng(78, 80), 100),
        draws(2, 1, 0, _rng(110, 112), 100),
        draws(2, 1, 0, _rng(118, 120), 80),
        # loop and crossing classification of every draw
        draws(1, 1, 1, _rng(102, 104), 500, "--stats"),
        draws(1, 2, 0, _rng(148, 150), 500, "--stats"),
        draws(2, 1, 1, _rng(62, 64), 300, "--stats"),
        draws(1, 2, 1, _rng(98, 100), 50, "--stats"),
        # genus 2: the shape inventory is searched while the tables are built
        draws(1, 1, 2, (12, 13), 100),
        draws(1, 1, 2, (14, 15), 50),
        draws(1, 2, 2, _rng(21, 23), 200),
        # per-structure analysis of structures sampled during set-up; at genus 2
        # the lengths keep the shape inventory at 6 arcs or fewer
        on_sampled("genus", 1, 1, 1, 60, 1),
        on_sampled("genus", 2, 2, 1, 100, 1),
        on_sampled("genus", 1, 2, 2, 26, 1),
        on_sampled("classify", 1, 1, 1, 80, 1),
        on_sampled("classify", 1, 2, 1, 100, 1),
        on_sampled("classify", 2, 1, 2, 13, 1),
        on_sampled("decompose", 1, 1, 1, 100, 20),
        on_sampled("decompose", 2, 1, 1, 80, 10),
        on_sampled("decompose", 1, 2, 2, 26, 20),
    ]


_MENUS = {"analytic": _analytic, "census": _census, "sample": _sample}

#: Requests run before timing starts; none of them is on a menu.
WARMUP = {
    "analytic": [
        _cli("count", 30, "--genus", 1),
        _cli("count", 20, "--genus", 2, "--arcs"),
        _cli("expect", "--type", "H", "--n", 30),
        _cli("series", "dg", "--genus", 1, "--order", 30),
        _cli("clt", *_cls(4, 4)),
        Lib("loop_variance", 1, 1, 1, "stack", 21),
        Lib("arc_mean", 1, 1, 1, None, 31),
    ],
    "census": [
        _cli("census", "--n", 7),
        _cli("count", 7, "--genus", 1, "--oracle"),
    ],
    "sample": [
        _cli("sample", "--n", 30, "--genus", 1, "--count", 20, "--seed", 0),
        _cli("sample", "--n", 30, "--genus", 0, "--count", 20, "--seed", 0, "--stats"),
        _cli("sample", "--n", 10, "--genus", 2, "--count", 5, "--seed", 0),
        OnSampled("genus", 1, 1, 1, 20, 1, 0),
        OnSampled("classify", 1, 1, 1, 20, 1, 0),
        OnSampled("decompose", 1, 1, 1, 20, 2, 0),
    ],
}


def menu(workload: str) -> list[list]:
    """The slots of one workload, each a list of interchangeable requests."""
    if workload not in _MENUS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _MENUS[workload]()


def make_pass(workload: str, seed: int) -> list:
    """One option from every slot, in an order that also depends on ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    chosen = [rng.choice(options) for options in menu(workload)]
    rng.shuffle(chosen)
    return chosen
