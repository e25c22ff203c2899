"""Pure-Python branch-and-bound kernels over arbitrary-precision int bitsets.

Two exact engines back all seven parameter solvers:

* minimum hitting set: find the smallest vertex set intersecting every
  requirement mask (domination and code-distinctness constraints both
  reduce to this form);
* maximum disjoint-neighborhood packing: find a conflict-free vertex set
  whose coverage masks are pairwise disjoint and cover the most vertices.

Each engine has an optimizing kernel (``solve_cover``, ``solve_pack``),
which returns the optimum, a witness mask and its node count, and a
feasibility kernel (``cover_feasible``, ``pack_feasible``) for the
canonical-witness pass.  A feasibility kernel returns the mask of a set
that meets every constraint of its call, or ``None`` when no such set
exists.  The mask 0 is a valid witness (an empty packing reaches target 0),
so callers test ``is None``, never truthiness.

The requirement list reaches the cover kernels already dominance-filtered
and in scan order (``solvers`` filters it once per solve); the kernels do
not filter again.

At each node the cover kernels bound the vertices still needed from below
by a greedy packing: ``lb`` unhit requirements whose candidate sets are
pairwise disjoint, with union ``used``.  When that bound leaves no slack
(``count + lb + 1`` equals the incumbent in ``solve_cover``, ``count + lb``
equals ``limit`` in ``cover_feasible``), any set the subtree still wants
adds exactly ``lb`` vertices, one in each packed requirement, so none
outside ``used``.  The node then restricts every unhit requirement to
``used``, which bans every vertex outside it for the whole subtree, closes
at once if some requirement has no candidate left, and otherwise branches
on the narrowest restricted requirement.  The rule removes only subtrees
that hold no smaller (or no feasible) set, so optima, infeasibility
verdicts and canonical witnesses are those of the plain search; node
counts, and the optimizing kernel's witness among equal optima, may differ.

The optimizing kernels take ``roots``, a sequence of ``(forced, banned)``
vertex masks: start nodes searched in turn against one shared incumbent.
They return the optimum over the sets S with ``forced <= S`` and
``S & banned == 0`` for some root, a witness that meets one root, and the
nodes summed over all roots; a ValueError means that no root admits a set.
A root conflicting with itself (forced & banned, or for packing two forced
vertices with overlapping coverage) is skipped; a packing root starts from
its forced vertices' coverage with their conflicts removed, as
``pack_feasible`` does.  The default ``((0, 0),)`` is the plain search.
Roots are how a caller that knows the graph's symmetry (``density`` on a
toroidal quotient) searches one branch per vertex orbit instead of every
symmetric copy of each optimum; the kernels assume no symmetry themselves.
"""

from __future__ import annotations

from collections.abc import Sequence

#: Largest vertex count this backend accepts (no real limit for Python ints).
MAX_N = 1 << 20

#: Start nodes of an optimizing search, as (forced, banned) vertex masks.
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
    them to branch on (the first in scan order among equals), or a branch of
    0 when some set has no candidate in ``used``, which closes the node."""
    restricted = []
    branch_req = 0
    branch_width = used.bit_count() + 1
    for m in unhit:
        cand = m & used
        if cand == 0:
            return restricted, 0
        restricted.append(cand)
        width = cand.bit_count()
        if width < branch_width:
            branch_width = width
            branch_req = cand
    return restricted, branch_req


def solve_cover(n: int, masks: list[int], roots: Roots = ((0, 0),)) -> tuple[int, int, int]:
    """Minimum hitting set of the requirement masks among the sets that meet
    some root's constraints.

    Returns (optimum size, witness mask, explored node count).  Every mask
    must be nonzero; feasibility screening and dominance filtering are the
    caller's job.  Requirements are scanned in the order given.  Raises
    ValueError when no root admits a hitting set.
    """
    if any(m == 0 for m in masks):
        raise ValueError("infeasible: empty requirement")
    best = [n + 1, None]
    for forced, banned in roots:
        seed = _greedy_cover(masks, forced, banned)
        if seed is not None and seed.bit_count() < best[0]:
            best = [seed.bit_count(), seed]
    nodes = [0]

    def rec(live: list[int], chosen: int, count: int, banned: int) -> None:
        nodes[0] += 1
        # one pass over the requirements the parent left unhit: keep the
        # candidates of those still unhit for the children, detect dead
        # ones, greedy-pack a lower bound, and remember the narrowest one
        free = ~banned
        unhit = []
        lb = 0
        used = 0
        branch_req = 0
        branch_width = n + 1
        for m in live:
            if m & chosen:
                continue
            cand = m & free
            if cand == 0:
                return
            unhit.append(cand)
            if not cand & used:
                lb += 1
                used |= cand
            width = cand.bit_count()
            if width < branch_width:
                branch_width = width
                branch_req = cand
        if branch_req == 0:
            if count < best[0]:
                best[0] = count
                best[1] = chosen
            return
        if count + lb >= best[0]:
            return
        if count + lb + 1 == best[0]:
            # tight packing (module docstring): the children see only the
            # restricted sets, so no vertex outside used enters the subtree
            unhit, branch_req = _tight(unhit, used)
            if not branch_req:
                return
        cand = branch_req
        while cand:
            low = cand & -cand
            cand ^= low
            rec(unhit, chosen | low, count + 1, banned)
            banned |= low
            if count + 1 >= best[0]:
                break

    for forced, banned in roots:
        if not forced & banned:
            rec(masks, forced, forced.bit_count(), banned)
    if best[1] is None:
        raise ValueError("infeasible: no root admits a hitting set")
    return best[0], best[1], nodes[0]


def cover_feasible(n: int, masks: list[int], forced: int, banned: int, limit: int) -> int | None:
    """A hitting set S with forced <= S, S & banned == 0 and |S| <= limit.

    Returns the mask of one such S, or None when there is none.
    """
    if forced & banned:
        return None

    def rec(live: list[int], chosen: int, count: int, banned: int) -> int | None:
        if count > limit:
            return None
        free = ~banned
        unhit = []
        lb = 0
        used = 0
        branch_req = 0
        branch_width = n + 1
        for m in live:
            if m & chosen:
                continue
            cand = m & free
            if cand == 0:
                return None
            unhit.append(cand)
            if not cand & used:
                lb += 1
                used |= cand
            width = cand.bit_count()
            if width < branch_width:
                branch_width = width
                branch_req = cand
        if branch_req == 0:
            return chosen
        if count + lb > limit:
            return None
        if count + lb == limit:
            # tight packing (module docstring): the children see only the
            # restricted sets, so no vertex outside used enters the subtree
            unhit, branch_req = _tight(unhit, used)
            if not branch_req:
                return None
        cand = branch_req
        while cand:
            low = cand & -cand
            cand ^= low
            found = rec(unhit, chosen | low, count + 1, banned)
            if found is not None:
                return found
            banned |= low
        return None

    return rec(masks, forced, forced.bit_count(), banned)


def _conflicts(n: int, cov: list[int]) -> list[int]:
    conf = [0] * n
    for a in range(n):
        ca = cov[a]
        if ca == 0:
            continue
        for b in range(a + 1, n):
            if ca & cov[b]:
                conf[a] |= 1 << b
                conf[b] |= 1 << a
    return conf


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


def solve_pack(n: int, cov: list[int], roots: Roots = ((0, 0),)) -> tuple[int, int, int]:
    """Maximum coverage by pairwise-disjoint coverage masks among the sets
    that meet some root's constraints.

    Returns (covered count, witness mask, explored node count).  The witness
    is a conflict-free set; its coverage masks are pairwise disjoint.  Raises
    ValueError when no root admits a conflict-free set.
    """
    conf = _conflicts(n, cov)
    best = [-1, None]
    nodes = [0]

    def rec(avail: int, covered: int, chosen: int) -> None:
        nodes[0] += 1
        weight = covered.bit_count()
        if weight > best[0]:
            best[0] = weight
            best[1] = chosen
        # optimistic bound: everything still coverable gets covered
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
        if branch < 0 or weight + union.bit_count() <= best[0]:
            return
        bit = 1 << branch
        rec(avail & ~bit & ~conf[branch], covered | cov[branch], chosen | bit)
        rec(avail & ~bit, covered, chosen)

    for forced, banned in roots:
        start = _pack_start(n, cov, conf, forced, banned)
        if start is not None:
            rec(*start, forced)
    if best[1] is None:
        raise ValueError("infeasible: no root admits a packing")
    return best[0], best[1], nodes[0]


def pack_feasible(
    n: int, cov: list[int], forced: int, banned: int, target: int, size_cap: int | None = None
) -> int | None:
    """A conflict-free S >= forced avoiding banned with coverage >= target
    (and, when given, |S| <= size_cap).

    Returns the mask of one such S, or None when there is none; the empty
    set (mask 0) is a witness whenever target <= 0.
    """
    conf = _conflicts(n, cov)
    start = _pack_start(n, cov, conf, forced, banned)
    if start is None:
        return None
    avail, covered = start
    cap = size_cap if size_cap is not None else n
    if forced.bit_count() > cap:
        return None

    def rec(avail: int, covered: int, chosen: int, count: int) -> int | None:
        if covered.bit_count() >= target:
            return chosen
        if count >= cap:
            return None
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
        if branch < 0 or covered.bit_count() + union.bit_count() < target:
            return None
        bit = 1 << branch
        found = rec(avail & ~bit & ~conf[branch], covered | cov[branch], chosen | bit, count + 1)
        if found is not None:
            return found
        return rec(avail & ~bit, covered, chosen, count)

    return rec(avail, covered, forced, forced.bit_count())
