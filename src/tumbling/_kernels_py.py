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

The compiled extension in ``_kernels.pyx`` implements the same interface
over fixed-width machine words; results are identical, only speed differs.
"""

from __future__ import annotations

#: Largest vertex count this backend accepts (no real limit for Python ints).
MAX_N = 1 << 20


def _greedy_cover(n: int, masks: list[int]) -> int:
    """Greedy hitting set used as the initial upper bound; returns a mask."""
    chosen = 0
    unsat = [m for m in masks]
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


def solve_cover(n: int, masks: list[int]) -> tuple[int, int, int]:
    """Minimum hitting set of the requirement masks.

    Returns (optimum size, witness mask, explored node count).  Every mask
    must be nonzero; feasibility screening and dominance filtering are the
    caller's job.  Requirements are scanned in the order given.
    """
    if any(m == 0 for m in masks):
        raise ValueError("infeasible: empty requirement")
    seed = _greedy_cover(n, masks)
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
        cand = branch_req
        while cand:
            low = cand & -cand
            cand ^= low
            rec(unhit, chosen | low, count + 1, banned)
            banned |= low
            if count + 1 >= best[0]:
                break

    rec(masks, 0, 0, 0)
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


def solve_pack(n: int, cov: list[int]) -> tuple[int, int, int]:
    """Maximum coverage by pairwise-disjoint coverage masks.

    Returns (covered count, witness mask, explored node count).  The witness
    is a conflict-free set; its coverage masks are pairwise disjoint.
    """
    conf = _conflicts(n, cov)
    best = [0, 0]
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

    rec((1 << n) - 1, 0, 0)
    return best[0], best[1], nodes[0]


def pack_feasible(
    n: int, cov: list[int], forced: int, banned: int, target: int, size_cap: int | None = None
) -> int | None:
    """A conflict-free S >= forced avoiding banned with coverage >= target
    (and, when given, |S| <= size_cap).

    Returns the mask of one such S, or None when there is none; the empty
    set (mask 0) is a witness whenever target <= 0.
    """
    if forced & banned:
        return None
    conf = _conflicts(n, cov)
    covered = 0
    avail = ((1 << n) - 1) & ~banned & ~forced if n else 0
    fm = forced
    while fm:
        low = fm & -fm
        fm ^= low
        b = low.bit_length() - 1
        if conf[b] & forced:
            return None
        covered |= cov[b]
        avail &= ~conf[b]
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
