# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled branch-and-bound kernels over fixed-width machine-word bitsets.

Same interface and results as ``_kernels_py``; this backend exists purely
for speed on the hot subset-search loops.  As there, the feasibility kernels
return a witness mask (0 is a valid one) or None, the cover kernels take
the requirement list already dominance-filtered, in scan order, and the
optimizing kernels take the same ``roots`` of (forced, banned) start nodes.
"""

from libc.stdlib cimport malloc, free
from libc.string cimport memset, memcpy

cdef extern from *:
    """
    #include <stdint.h>
    static inline int popc64(uint64_t x) { return __builtin_popcountll(x); }
    """
    int popc64(unsigned long long x) nogil

ctypedef unsigned long long u64

DEF MAXW = 8  # 8 * 64 = 512 vertex cap

MAX_N = 64 * MAXW

cdef u64 _MASK64 = <u64>0xFFFFFFFFFFFFFFFF


cdef int _to_words(object mask, u64 *out, int nw) except -1:
    cdef int w
    for w in range(nw):
        out[w] = <u64>((mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF)
    return 0


cdef object _from_words(u64 *words, int nw):
    cdef object out = 0
    cdef int w
    for w in range(nw):
        out |= (<object>words[w]) << (64 * w)
    return out


# ---------------------------------------------------------------------------
# minimum hitting set
# ---------------------------------------------------------------------------

cdef bint _tight_branch(u64 *reqs, int m, int n, int nw, u64 *chosen, u64 *used,
                       u64 *branch, u64 *local_banned):
    """A packing with no slack, of union ``used``: a small enough set takes
    one vertex from each packed requirement, so ban every vertex outside
    ``used`` and put the narrowest unhit requirement restricted to ``used``
    in ``branch`` (the first in scan order among equals).  Returns False
    when some unhit requirement has no candidate in ``used``."""
    cdef u64 cand[MAXW]
    cdef u64 *rp
    cdef int r, w, width, hit
    cdef int branch_width = n + 1
    for w in range(nw):
        local_banned[w] = ~used[w]
    if n & 63:
        local_banned[nw - 1] &= ((<u64>1) << (n & 63)) - 1
    for r in range(m):
        rp = reqs + r * nw
        hit = 0
        for w in range(nw):
            if rp[w] & chosen[w]:
                hit = 1
                break
        if hit:
            continue
        width = 0
        for w in range(nw):
            cand[w] = rp[w] & used[w]
            width += popc64(cand[w])
        if width == 0:
            return False
        if width < branch_width:
            branch_width = width
            memcpy(branch, cand, nw * sizeof(u64))
    return True


cdef struct CoverCtx:
    int n, nw, m
    u64 *reqs
    int best
    u64 best_wit[MAXW]
    long long nodes


cdef void _cover_rec(CoverCtx *ctx, u64 *chosen, int count, u64 *banned):
    cdef int nw = ctx.nw
    cdef u64 used[MAXW]
    cdef u64 cand[MAXW]
    cdef u64 branch[MAXW]
    cdef u64 local_banned[MAXW]
    cdef u64 *rp
    cdef u64 low
    cdef int r, w, width, lb, branch_width, hit, overlap
    ctx.nodes += 1
    memset(used, 0, nw * sizeof(u64))
    lb = 0
    branch_width = ctx.n + 1
    for r in range(ctx.m):
        rp = ctx.reqs + r * nw
        hit = 0
        for w in range(nw):
            if rp[w] & chosen[w]:
                hit = 1
                break
        if hit:
            continue
        width = 0
        overlap = 0
        for w in range(nw):
            cand[w] = rp[w] & ~banned[w]
            width += popc64(cand[w])
            if cand[w] & used[w]:
                overlap = 1
        if width == 0:
            return
        if not overlap:
            lb += 1
            for w in range(nw):
                used[w] |= cand[w]
        if width < branch_width:
            branch_width = width
            memcpy(branch, cand, nw * sizeof(u64))
    if branch_width == ctx.n + 1:
        if count < ctx.best:
            ctx.best = count
            memcpy(ctx.best_wit, chosen, nw * sizeof(u64))
        return
    if count + lb >= ctx.best:
        return
    memcpy(local_banned, banned, nw * sizeof(u64))
    if count + lb + 1 == ctx.best:
        if not _tight_branch(ctx.reqs, ctx.m, ctx.n, nw, chosen, used, branch, local_banned):
            return
    for w in range(nw):
        while branch[w]:
            low = branch[w] & (~branch[w] + 1)
            branch[w] ^= low
            chosen[w] |= low
            _cover_rec(ctx, chosen, count + 1, local_banned)
            chosen[w] &= ~low
            local_banned[w] |= low
            if count + 1 >= ctx.best:
                return


def solve_cover(int n, masks, roots=((0, 0),)):
    """Minimum hitting set among the sets that meet some (forced, banned)
    root; returns (size, witness mask, node count summed over the roots)."""
    if n > MAX_N:
        raise ValueError(f"compiled backend caps n at {MAX_N}")
    filtered = list(masks)
    cdef CoverCtx ctx
    ctx.n = n
    ctx.nw = (n + 63) >> 6 if n else 1
    ctx.m = len(filtered)
    ctx.nodes = 0
    ctx.reqs = <u64 *>malloc(max(ctx.m, 1) * ctx.nw * sizeof(u64))
    if ctx.reqs == NULL:
        raise MemoryError()
    cdef u64 chosen[MAXW]
    cdef u64 banned_w[MAXW]
    cdef int r
    try:
        for r, mask in enumerate(filtered):
            if mask == 0:
                raise ValueError("infeasible: empty requirement")
            _to_words(mask, ctx.reqs + r * ctx.nw, ctx.nw)
        # the incumbent starts as the best greedy completion of any root
        ctx.best = n + 1
        for forced, banned in roots:
            seed = _greedy_cover_py(filtered, forced, banned)
            if seed is not None and bin(seed).count("1") < ctx.best:
                ctx.best = bin(seed).count("1")
                _to_words(seed, ctx.best_wit, ctx.nw)
        for forced, banned in roots:
            if forced & banned:
                continue
            _to_words(forced, chosen, ctx.nw)
            _to_words(banned, banned_w, ctx.nw)
            _cover_rec(&ctx, chosen, bin(forced).count("1"), banned_w)
        if ctx.best > n:
            raise ValueError("infeasible: no root admits a hitting set")
        return ctx.best, _from_words(ctx.best_wit, ctx.nw), ctx.nodes
    finally:
        free(ctx.reqs)


cdef struct FeasCtx:
    int n, nw, m, limit
    u64 *reqs
    u64 wit[MAXW]


cdef bint _cover_feas_rec(FeasCtx *ctx, u64 *chosen, int count, u64 *banned):
    cdef int nw = ctx.nw
    cdef u64 used[MAXW]
    cdef u64 cand[MAXW]
    cdef u64 branch[MAXW]
    cdef u64 local_banned[MAXW]
    cdef u64 *rp
    cdef u64 low
    cdef int r, w, width, lb, branch_width, hit, overlap
    if count > ctx.limit:
        return False
    memset(used, 0, nw * sizeof(u64))
    lb = 0
    branch_width = ctx.n + 1
    for r in range(ctx.m):
        rp = ctx.reqs + r * nw
        hit = 0
        for w in range(nw):
            if rp[w] & chosen[w]:
                hit = 1
                break
        if hit:
            continue
        width = 0
        overlap = 0
        for w in range(nw):
            cand[w] = rp[w] & ~banned[w]
            width += popc64(cand[w])
            if cand[w] & used[w]:
                overlap = 1
        if width == 0:
            return False
        if not overlap:
            lb += 1
            for w in range(nw):
                used[w] |= cand[w]
        if width < branch_width:
            branch_width = width
            memcpy(branch, cand, nw * sizeof(u64))
    if branch_width == ctx.n + 1:
        memcpy(ctx.wit, chosen, nw * sizeof(u64))
        return True
    if count + lb > ctx.limit:
        return False
    memcpy(local_banned, banned, nw * sizeof(u64))
    if count + lb == ctx.limit:
        if not _tight_branch(ctx.reqs, ctx.m, ctx.n, nw, chosen, used, branch, local_banned):
            return False
    for w in range(nw):
        while branch[w]:
            low = branch[w] & (~branch[w] + 1)
            branch[w] ^= low
            chosen[w] |= low
            if _cover_feas_rec(ctx, chosen, count + 1, local_banned):
                chosen[w] &= ~low
                return True
            chosen[w] &= ~low
            local_banned[w] |= low
    return False


def cover_feasible(int n, masks, forced, banned, int limit):
    """A hitting set S with forced <= S, S & banned == 0, |S| <= limit, as a
    mask, or None when there is none."""
    if n > MAX_N:
        raise ValueError(f"compiled backend caps n at {MAX_N}")
    if forced & banned:
        return None
    filtered = list(masks)
    cdef FeasCtx ctx
    ctx.n = n
    ctx.nw = (n + 63) >> 6 if n else 1
    ctx.m = len(filtered)
    ctx.limit = limit
    ctx.reqs = <u64 *>malloc(max(ctx.m, 1) * ctx.nw * sizeof(u64))
    if ctx.reqs == NULL:
        raise MemoryError()
    cdef u64 chosen[MAXW]
    cdef u64 banned_w[MAXW]
    cdef int r
    try:
        for r, mask in enumerate(filtered):
            if mask == 0:
                return None
            _to_words(mask, ctx.reqs + r * ctx.nw, ctx.nw)
        _to_words(forced, chosen, ctx.nw)
        _to_words(banned, banned_w, ctx.nw)
        if _cover_feas_rec(&ctx, chosen, bin(forced).count("1"), banned_w):
            return _from_words(ctx.wit, ctx.nw)
        return None
    finally:
        free(ctx.reqs)


# ---------------------------------------------------------------------------
# maximum disjoint-neighborhood packing
# ---------------------------------------------------------------------------

cdef struct PackCtx:
    int n, nw
    u64 *cov
    u64 *conf
    int best
    u64 best_wit[MAXW]
    long long nodes
    int target     # feasibility mode: stop once coverage >= target (-1: optimize)
    int size_cap


cdef bint _pack_rec(PackCtx *ctx, u64 *avail, u64 *covered, u64 *chosen,
                    int weight, int count):
    cdef int nw = ctx.nw
    cdef u64 unioncov[MAXW]
    cdef u64 av[MAXW]
    cdef u64 next_avail[MAXW]
    cdef u64 next_cov[MAXW]
    cdef u64 low, gw
    cdef int w, w2, b, base, g, branch, branch_gain, ub
    ctx.nodes += 1
    if ctx.target >= 0:
        if weight >= ctx.target:
            memcpy(ctx.best_wit, chosen, nw * sizeof(u64))
            return True
        if count >= ctx.size_cap:
            return False
    elif weight > ctx.best:
        ctx.best = weight
        memcpy(ctx.best_wit, chosen, nw * sizeof(u64))
    memset(unioncov, 0, nw * sizeof(u64))
    branch = -1
    branch_gain = 0
    memcpy(av, avail, nw * sizeof(u64))
    for w in range(nw):
        base = w << 6
        while av[w]:
            low = av[w] & (~av[w] + 1)
            av[w] ^= low
            b = base + popc64(low - 1)
            g = 0
            for w2 in range(nw):
                gw = ctx.cov[b * nw + w2] & ~covered[w2]
                unioncov[w2] |= gw
                g += popc64(gw)
            if g > branch_gain:
                branch_gain = g
                branch = b
    ub = weight
    for w in range(nw):
        ub += popc64(unioncov[w])
    if ctx.target >= 0:
        if branch < 0 or ub < ctx.target:
            return False
    else:
        if branch < 0 or ub <= ctx.best:
            return False
    cdef u64 bit = (<u64>1) << (branch & 63)
    cdef int bw = branch >> 6
    # include branch vertex
    for w in range(nw):
        next_avail[w] = avail[w] & ~ctx.conf[branch * nw + w]
        next_cov[w] = covered[w] | ctx.cov[branch * nw + w]
    next_avail[bw] &= ~bit
    chosen[bw] |= bit
    if _pack_rec(ctx, next_avail, next_cov, chosen, weight + branch_gain, count + 1):
        chosen[bw] &= ~bit
        return True
    chosen[bw] &= ~bit
    # exclude branch vertex
    for w in range(nw):
        next_avail[w] = avail[w]
    next_avail[bw] &= ~bit
    return _pack_rec(ctx, next_avail, covered, chosen, weight, count)


cdef PackCtx *_pack_setup(int n, cov_masks) except NULL:
    cdef PackCtx *ctx = <PackCtx *>malloc(sizeof(PackCtx))
    if ctx == NULL:
        raise MemoryError()
    ctx.n = n
    ctx.nw = (n + 63) >> 6 if n else 1
    ctx.nodes = 0
    ctx.best = 0
    ctx.cov = <u64 *>malloc(max(n, 1) * ctx.nw * sizeof(u64))
    ctx.conf = <u64 *>malloc(max(n, 1) * ctx.nw * sizeof(u64))
    if ctx.cov == NULL or ctx.conf == NULL:
        free(ctx.cov)
        free(ctx.conf)
        free(ctx)
        raise MemoryError()
    cdef int a, b, w
    for a, mask in enumerate(cov_masks):
        _to_words(mask, ctx.cov + a * ctx.nw, ctx.nw)
    memset(ctx.conf, 0, max(n, 1) * ctx.nw * sizeof(u64))
    for a in range(n):
        for b in range(a + 1, n):
            for w in range(ctx.nw):
                if ctx.cov[a * ctx.nw + w] & ctx.cov[b * ctx.nw + w]:
                    ctx.conf[a * ctx.nw + (b >> 6)] |= (<u64>1) << (b & 63)
                    ctx.conf[b * ctx.nw + (a >> 6)] |= (<u64>1) << (a & 63)
                    break
    return ctx


cdef void _pack_teardown(PackCtx *ctx):
    free(ctx.cov)
    free(ctx.conf)
    free(ctx)


cdef int _pack_start(PackCtx *ctx, object forced, object banned,
                     u64 *avail, u64 *covered, u64 *chosen) except -2:
    """Take the forced vertices: fill avail, covered and chosen, and return
    the covered count, or -1 when the forced vertices overlap the banned
    ones or conflict with each other."""
    cdef u64 forced_w[MAXW]
    cdef int w, b, weight
    if forced & banned:
        return -1
    _to_words(forced, forced_w, ctx.nw)
    memcpy(chosen, forced_w, ctx.nw * sizeof(u64))
    memset(covered, 0, ctx.nw * sizeof(u64))
    _to_words(((1 << ctx.n) - 1) & ~banned & ~forced, avail, ctx.nw)
    fm = forced
    while fm:
        b = (fm & -fm).bit_length() - 1
        fm &= fm - 1
        for w in range(ctx.nw):
            if ctx.conf[b * ctx.nw + w] & forced_w[w]:
                return -1
        for w in range(ctx.nw):
            covered[w] |= ctx.cov[b * ctx.nw + w]
            avail[w] &= ~ctx.conf[b * ctx.nw + w]
    weight = 0
    for w in range(ctx.nw):
        weight += popc64(covered[w])
    return weight


def solve_pack(int n, cov_masks, roots=((0, 0),)):
    """Maximum disjoint coverage among the sets that meet some (forced,
    banned) root; returns (covered count, witness mask, node count summed
    over the roots)."""
    if n > MAX_N:
        raise ValueError(f"compiled backend caps n at {MAX_N}")
    if len(cov_masks) != n:
        raise ValueError("need one coverage mask per vertex")
    cdef PackCtx *ctx = _pack_setup(n, cov_masks)
    cdef u64 avail[MAXW]
    cdef u64 covered[MAXW]
    cdef u64 chosen[MAXW]
    cdef int weight
    try:
        ctx.target = -1
        ctx.size_cap = n
        ctx.best = -1
        for forced, banned in roots:
            weight = _pack_start(ctx, forced, banned, avail, covered, chosen)
            if weight >= 0:
                _pack_rec(ctx, avail, covered, chosen, weight, bin(forced).count("1"))
        if ctx.best < 0:
            raise ValueError("infeasible: no root admits a packing")
        return ctx.best, _from_words(ctx.best_wit, ctx.nw), ctx.nodes
    finally:
        _pack_teardown(ctx)


def pack_feasible(int n, cov_masks, forced, banned, int target, size_cap=None):
    """A conflict-free S >= forced avoiding banned with coverage >= target
    (and |S| <= size_cap), as a mask, or None when there is none."""
    if n > MAX_N:
        raise ValueError(f"compiled backend caps n at {MAX_N}")
    if size_cap is not None and bin(forced).count("1") > size_cap:
        return None
    cdef PackCtx *ctx = _pack_setup(n, cov_masks)
    cdef u64 avail[MAXW]
    cdef u64 covered[MAXW]
    cdef u64 chosen[MAXW]
    cdef int weight
    try:
        ctx.target = target
        ctx.size_cap = size_cap if size_cap is not None else n
        weight = _pack_start(ctx, forced, banned, avail, covered, chosen)
        if weight < 0:
            return None
        if _pack_rec(ctx, avail, covered, chosen, weight, bin(forced).count("1")):
            return _from_words(ctx.best_wit, ctx.nw)
        return None
    finally:
        _pack_teardown(ctx)


# ---------------------------------------------------------------------------
# shared helpers (python-level, setup cost only)
# ---------------------------------------------------------------------------

def _greedy_cover_py(masks, forced, banned):
    if forced & banned:
        return None
    chosen = forced
    unsat = [m & ~banned for m in masks if not m & forced]
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
        best_bit = max(counts, key=lambda bb: (counts[bb], -bb))
        chosen |= best_bit
        unsat = [m for m in unsat if not m & best_bit]
    return chosen
