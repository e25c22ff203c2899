"""Pure-Python branch-and-bound kernels over arbitrary-precision int bitsets.

Two exact engines back all seven parameter solvers:

* minimum hitting set: find the smallest vertex set intersecting every
  requirement mask (domination and code-distinctness constraints both
  reduce to this form);
* maximum disjoint-neighborhood packing: find a conflict-free vertex set
  whose coverage masks are pairwise disjoint and cover the most vertices.

Each engine is one recursive search run against an incumbent bound: it
keeps a set only when the set beats the bound (fewer vertices for a cover,
more covered for a packing), and that set's value becomes the bound.  The
optimizing kernels (``solve_cover``, ``solve_pack``) start from the greedy
cover's size, or -1 for a packing, search to exhaustion and return the
optimum, a witness mask and the node count.  The feasibility kernels
(``cover_feasible``, ``pack_feasible``) of the canonical-witness pass fix
the bound at ``limit + 1`` or ``target - 1``, stop at the first set kept and
return its mask, or ``None`` when there is none.  The mask 0 is a valid
witness (an empty packing reaches target 0): callers test ``is None``.

The cover search takes its requirements dominance-filtered and in scan
order (``solvers`` filters them once per solve).  At each node it bounds
the vertices still needed by a greedy packing: ``lb`` unhit requirements
with pairwise disjoint candidate sets, with union ``used``.  The packing
takes the candidate sets narrowest first (a stable sort, so ties keep scan
order) and closes the node as soon as ``count + lb`` reaches the bound.
Disjoint sets need distinct vertices in whatever order they were picked, so
the bound is exact; narrow sets first keep it high once banning has shrunk
some requirements.  When the packing leaves no slack (``count + lb + 1``
equals the bound), a set the subtree may still keep adds one vertex in each
packed requirement and none outside ``used``.  The node then restricts
every unhit requirement to ``used`` (each meets it: the packing took every
one that missed it) and branches on the narrowest.  Both rules remove only
subtrees holding no set that beats the bound, so optima, infeasibility
verdicts and canonical witnesses are the plain search's; node counts, and
the optimizing witness among equal optima, may differ.

The pack search reads a conflict table, ``conf``: bit b of entry a is set
when b != a and the coverage masks of a and b overlap.  Both packing
kernels are always passed it; ``solvers._conflicts`` builds it once per
solve, for the proof and every call of the canonical pass.  The search
closes a node by two upper bounds on what the subtree can still cover: the
union of the available vertices' gains, and the best single gain times
``cap - count``, the vertices that may still join under the size cap.  The
cap bound removes only subtrees holding no set that beats the bound and
leaves the depth-first order alone, so every feasibility call returns the
same mask as without it; it pays in the canonical pass, whose calls cap
the size.  A proof's cap is n, and there the union, at most ``n - count``
gains, always closes first: proof node counts are the plain union bound's.

Every search runs from ``roots``, ``(forced, banned)`` vertex masks searched
in turn against the one bound; a feasibility kernel has the one root of its
call.  A root conflicting with itself (forced & banned; for packing, two
forced vertices with overlapping coverage, or more than the size cap) is
skipped; a packing root starts from its forced vertices' coverage.  The
optimizing kernels return a witness meeting some root and raise ValueError
when no root admits a set; the one root ``(0, 0)`` is the plain search.
Roots are how a caller that knows the graph's symmetry (``density`` on a
toroidal quotient) searches one branch per vertex orbit instead of every
symmetric copy of each optimum; the kernels assume no symmetry themselves.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import suppress

#: Largest vertex count this backend accepts (no real limit for Python ints).
MAX_N = 1 << 20

#: Start nodes of a search, as (forced, banned) vertex masks.
Roots = Sequence[tuple[int, int]]


def _greedy_cover(masks: list[int], forced: int, banned: int) -> int | None:
    """Greedy hitting set with every forced and no banned vertex, used as an
    initial upper bound; returns a mask, or None when the root admits none."""
    if forced & banned:
        return None
    chosen = forced
    free = ~banned
    unsat = [m & free for m in masks if not m & forced]
    if any(m == 0 for m in unsat):
        return None
    while unsat:
        counts = {}
        for m in unsat:
            mm = m
            while mm:
                low = mm & -mm
                counts[low] = counts.get(low, 0) + 1
                mm ^= low
        best_bit = max(counts, key=lambda b: (counts[b], -b))
        chosen |= best_bit
        unsat = [m for m in unsat if not m & best_bit]
    return chosen


def _tight(unhit: list[int], used: int) -> tuple[list[int], int]:
    """Restrict each unhit candidate set to ``used``, the union of a packing
    that leaves no slack.  Returns the restricted sets and the narrowest of
    them to branch on (the first in scan order among equals).  The packing
    took every unhit set that missed it, so no restricted set is empty."""
    restricted = [m & used for m in unhit]
    return restricted, min(restricted, key=int.bit_count)


class _Found(Exception):
    """Raised by a first-found search once it keeps a set."""


def _cover_search(
    masks: list[int], roots: Roots, bound: int, witness: int | None, first: bool
) -> tuple[int, int | None, int]:
    """Hitting sets smaller than ``bound`` that meet some root.  Returns the
    last kept set's (size, mask), or the given bound and witness, and the
    node count."""
    nodes = 0

    def rec(live: list[int], chosen: int, count: int, banned: int) -> None:
        nonlocal bound, witness, nodes
        nodes += 1
        # one pass over the requirements the parent left unhit: keep the
        # candidates of those still unhit for the children, and detect dead
        # ones
        free = ~banned
        unhit = []
        for m in live:
            if m & chosen:
                continue
            cand = m & free
            if cand == 0:
                return
            unhit.append(cand)
        if not unhit:
            if count < bound:
                bound = count
                witness = chosen
                if first:
                    raise _Found
            return
        # greedy-pack a lower bound, narrowest first (the sort is stable, so
        # its head is the first narrowest in scan order: the branch)
        by_width = sorted(unhit, key=int.bit_count)
        branch_req = by_width[0]
        lb = 0
        used = 0
        for cand in by_width:
            if not cand & used:
                lb += 1
                if count + lb >= bound:
                    return
                used |= cand
        if count + lb + 1 == bound:
            # tight packing (module docstring): the children see only the
            # restricted sets, so no vertex outside used enters the subtree
            unhit, branch_req = _tight(unhit, used)
        cand = branch_req
        while cand:
            low = cand & -cand
            cand ^= low
            rec(unhit, chosen | low, count + 1, banned)
            banned |= low
            if count + 1 >= bound:
                break

    with suppress(_Found):
        for forced, banned in roots:
            if not forced & banned:
                rec(masks, forced, forced.bit_count(), banned)
    return bound, witness, nodes


def solve_cover(n: int, masks: list[int], roots: Roots) -> tuple[int, int, int]:
    """Minimum hitting set of the requirement masks among the sets that meet
    some root's constraints.

    Returns (optimum size, witness mask, explored node count).  Every mask
    must be nonzero; feasibility screening and dominance filtering are the
    caller's job.  Each node packs its lower bound narrowest first and
    branches on the first narrowest requirement in the order given.  Raises
    ValueError when no root admits a hitting set.
    """
    if any(m == 0 for m in masks):
        raise ValueError("infeasible: empty requirement")
    best, seed = n + 1, None
    for forced, banned in roots:
        greedy = _greedy_cover(masks, forced, banned)
        if greedy is not None and greedy.bit_count() < best:
            best, seed = greedy.bit_count(), greedy
    best, witness, nodes = _cover_search(masks, roots, best, seed, False)
    if witness is None:
        raise ValueError("infeasible: no root admits a hitting set")
    return best, witness, nodes


def cover_feasible(n: int, masks: list[int], forced: int, banned: int, limit: int) -> int | None:
    """A hitting set S with forced <= S, S & banned == 0 and |S| <= limit:
    the mask of one such S, or None when there is none."""
    return _cover_search(masks, ((forced, banned),), limit + 1, None, True)[1]


def _pack_start(n: int, cov: list[int], conf: list[int], forced: int, banned: int) -> tuple[int, int] | None:
    """(available, covered) masks once the forced vertices are taken, or None
    when they overlap the banned ones or conflict with each other."""
    if forced & banned:
        return None
    covered = 0
    avail = ((1 << n) - 1) & ~banned & ~forced
    fm = forced
    while fm:
        low = fm & -fm
        fm ^= low
        b = low.bit_length() - 1
        if conf[b] & forced:
            return None
        covered |= cov[b]
        avail &= ~conf[b]
    return avail, covered


def _pack_search(
    n: int, cov: list[int], conf: list[int], roots: Roots, bound: int, cap: int, first: bool
) -> tuple[int, int | None, int]:
    """Conflict-free sets of at most ``cap`` vertices covering more than
    ``bound`` that meet some root.  Returns the last kept set's (coverage,
    mask), or the bound and None, and the node count."""
    witness = None
    nodes = 0

    def rec(avail: int, covered: int, chosen: int, count: int) -> None:
        nonlocal bound, witness, nodes
        nodes += 1
        weight = covered.bit_count()
        if weight > bound:
            bound = weight
            witness = chosen
            if first:
                raise _Found
        if count >= cap:
            return
        # optimistic bounds (module docstring): everything still coverable
        # gets covered; and each of the cap - count vertices that may still
        # join covers at most the best gain.  As weight <= bound here, both
        # close a node with nothing left to branch on.
        union = 0
        am = avail
        branch = -1
        branch_gain = 0
        while am:
            low = am & -am
            am ^= low
            b = low.bit_length() - 1
            gain = cov[b] & ~covered
            union |= gain
            g = gain.bit_count()
            if g > branch_gain:
                branch_gain = g
                branch = b
        if weight + union.bit_count() <= bound or weight + (cap - count) * branch_gain <= bound:
            return
        bit = 1 << branch
        rec(avail & ~bit & ~conf[branch], covered | cov[branch], chosen | bit, count + 1)
        rec(avail & ~bit, covered, chosen, count)

    with suppress(_Found):
        for forced, banned in roots:
            start = _pack_start(n, cov, conf, forced, banned)
            if start is not None and forced.bit_count() <= cap:
                rec(*start, forced, forced.bit_count())
    return bound, witness, nodes


def solve_pack(n: int, cov: list[int], roots: Roots, conf: list[int]) -> tuple[int, int, int]:
    """Maximum coverage by pairwise-disjoint coverage masks among the sets
    that meet some root's constraints.

    Returns (covered count, witness mask, explored node count).  The witness
    is a conflict-free set; its coverage masks are pairwise disjoint.  Raises
    ValueError when no root admits a conflict-free set.  ``conf`` is the
    conflict table of ``cov``.
    """
    best, witness, nodes = _pack_search(n, cov, conf, roots, -1, n, False)
    if witness is None:
        raise ValueError("infeasible: no root admits a packing")
    return best, witness, nodes


def pack_feasible(
    n: int, cov: list[int], forced: int, banned: int, target: int, size_cap: int, conf: list[int]
) -> int | None:
    """A conflict-free S >= forced avoiding banned with coverage >= target
    and |S| <= size_cap: the mask of one such S, or None when there is none.
    The empty set (mask 0) is a witness whenever target <= 0.  A node closes
    once its ``size_cap - count`` remaining vertices, each covering at most
    the best gain, cannot reach ``target`` (module docstring).  ``conf`` is
    the conflict table of ``cov``."""
    return _pack_search(n, cov, conf, ((forced, banned),), target - 1, size_cap, True)[1]
