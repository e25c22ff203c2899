"""Exact-rational share and open-share analysis of dominating sets.

The share of a dominator v splits each dominated vertex's unit of coverage
equally among its dominators; shares of a dominating set always sum to the
vertex count, which makes them the workhorse of density lower-bound
arguments.  Everything here is exact ``fractions.Fraction`` arithmetic; no
floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import FiniteGraph
from .solvers import _closed_code, _open_code, is_dominating, is_ld_set, is_old_set, is_open_dominating


def _member(g: FiniteGraph, D: Iterable[int], v: int, what: str) -> frozenset:
    """D as a checked vertex set, after checking that v is in it."""
    D = g.check_vertex_set(D)
    if v not in D:
        raise ValueError(f"vertex {v} is not in the {what} set")
    return D


def _require(holds: bool, what: str) -> None:
    if not holds:
        raise ValueError(f"set is not {what}")


def private_neighbors(g: FiniteGraph, D: Iterable[int], v: int) -> tuple[int, ...]:
    """Vertices dominated solely by v: all u with N[u] & D == {v}.  Each of
    them is in N[v]."""
    D = _member(g, D, v, "dominating")
    return tuple(sorted(u for u in (v, *g.adj[v]) if _closed_code(g, D, u) == {v}))


def _share(g: FiniteGraph, D: frozenset, v: int) -> Fraction:
    return sum((Fraction(1, len(_closed_code(g, D, w))) for w in (v, *g.adj[v])), Fraction(0))


def _open_share(g: FiniteGraph, D: frozenset, v: int) -> Fraction:
    return sum((Fraction(1, len(_open_code(g, D, w))) for w in g.adj[v]), Fraction(0))


def share(g: FiniteGraph, D: Iterable[int], v: int) -> Fraction:
    """sh(v; D): sum over w in N[v] of 1 / |D & N[w]|, exactly."""
    D = _member(g, D, v, "dominating")
    _require(is_dominating(g, D), "dominating")
    return _share(g, D, v)


def open_share(g: FiniteGraph, D: Iterable[int], v: int) -> Fraction:
    """sh_o(v; D): sum over w in N(v) of 1 / |N(w) & D|, exactly."""
    D = _member(g, D, v, "open-dominating")
    _require(is_open_dominating(g, D), "open-dominating")
    return _open_share(g, D, v)


@dataclass(frozen=True)
class ShareReport:
    """Per-dominator share breakdown; total equals n for a dominating set."""

    shares: dict[int, Fraction]
    total: Fraction
    private: dict[int, tuple[int, ...]]
    open_variant: bool


def share_report(g: FiniteGraph, D: Iterable[int], open_variant: bool = False) -> ShareReport:
    """All shares (or open shares) of D plus private-neighbor lists."""
    D = g.check_vertex_set(D)
    if open_variant:
        _require(is_open_dominating(g, D), "open-dominating")
    else:
        _require(is_dominating(g, D), "dominating")
    fn = _open_share if open_variant else _share
    shares = {v: fn(g, D, v) for v in sorted(D)}
    private = {} if open_variant else {v: private_neighbors(g, D, v) for v in sorted(D)}
    return ShareReport(
        shares=shares,
        total=sum(shares.values(), Fraction(0)),
        private=private,
        open_variant=open_variant,
    )


def check_open_share_cap(g: FiniteGraph, S: Iterable[int]) -> dict[int, Fraction]:
    """Open-share slack 1 + (deg(v)-1)/2 - sh_o(v;S) for every v in an OLD set S.

    Every margin is >= 0; a negative margin would contradict the open-share
    cap for open-locating-dominating sets and is raised as an error.
    """
    S = g.check_vertex_set(S)
    # an OLD set gives every vertex a nonempty open code: it open-dominates
    _require(is_old_set(g, S), "open-locating-dominating")
    margins = {}
    for v in sorted(S):
        bound = 1 + Fraction(g.degree(v) - 1, 2)
        margins[v] = bound - _open_share(g, S, v)
        if margins[v] < 0:
            raise AssertionError(
                f"open-share cap violated at {v}: share exceeds {bound}"
            )
    return margins


def check_ld_pn_bound(g: FiniteGraph, S: Iterable[int]) -> dict[int, int]:
    """Count each dominator's private neighbors among its own neighbors.

    For a locating-dominating set every count is at most 1 (two open private
    neighbors of v would share the code {v}); violations raise.
    """
    S = g.check_vertex_set(S)
    _require(is_ld_set(g, S), "locating-dominating")
    counts = {}
    for v in sorted(S):
        counts[v] = sum(u != v for u in private_neighbors(g, S, v))
        if counts[v] > 1:
            raise AssertionError(f"vertex {v} has {counts[v]} private neighbors in N(v)")
    return counts
