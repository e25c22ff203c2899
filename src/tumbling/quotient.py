"""Toroidal quotients of the infinite lattice by sublattices of block translations.

A rank-2 sublattice with Hermite-normal-form basis t1 = (a, 0), t2 = (c, d)
acts on block coordinates; the quotient identifies vertices whose (i, j)
differ by a lattice vector.  Valid quotients are finite graphs with 3*det
vertices and 6*det edges that model periodic patterns on the infinite graph:
a vertex set on a quotient lifts to a periodic set with the same density.

The orbit representatives are (cls, i, j) with 0 <= i < a and 0 <= j < d,
in that order, so the orbit of any lattice vertex has the index
``cls*det + i*d + j`` of its reduced coordinates
(:meth:`LatticeQuotient.index`).  :func:`build_quotient` computes adjacency
on these indices from a per-class table of neighbour offsets; no address
object is made per vertex.

``validate_quotient`` checks the stronger soundness condition used by the
density searches: every breadth-first ball of a given radius in the quotient
must be isomorphic, via the canonical projection, to the corresponding ball
of the infinite lattice.  Whether that holds depends on the sublattice
alone, so the check is arithmetic: no lattice vector may equal the block
offset between two same-class vertices at distance at most 2*radius (see
:func:`validate_quotient`).  No quotient graph is built to decide it.

The infinite graph has twelve automorphisms that fix ``u(0,0)`` (the point
group D6, :data:`POINT_GROUP`).  Each acts on block coordinates by a matrix
M in GL(2, Z), so it carries the quotient by a sublattice L onto the
quotient by M*L, and the two are isomorphic graphs.  :func:`quotient_orbits`
groups quotients into these orbits, so a density sweep can solve one
quotient per orbit.  :func:`induces_isomorphism` certifies each orbit member
by the same kind of arithmetic, so no member's graph need be built to trust
that it has its representative's optimum.  A block translation is a
:class:`LatticeSymmetry` too (M = I, every class shifted alike), and the
same certificate shows that it maps a quotient onto itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .graph import FiniteGraph
from .lattice import VClass, VertexAddr, ball_offsets, tb_neighbors


class DegenerateQuotientError(ValueError):
    """The sublattice folds some neighborhood onto itself (parallel edges)."""


@dataclass(frozen=True)
class LatticeQuotient:
    """Hermite-normal-form sublattice basis (a, 0), (c, d) with 0 <= c < a."""

    a: int
    c: int
    d: int

    def __post_init__(self):
        if self.a < 1 or self.d < 1:
            raise ValueError(f"lattice basis needs a, d >= 1, got a={self.a} d={self.d}")
        if not 0 <= self.c < self.a:
            raise ValueError(f"shear must satisfy 0 <= c < a, got c={self.c} a={self.a}")

    @property
    def det(self) -> int:
        return self.a * self.d

    def reduce(self, i: int, j: int) -> tuple[int, int]:
        """Canonical representative of block coordinate (i, j) modulo the lattice."""
        q, j = divmod(j, self.d)
        return (i - q * self.c) % self.a, j

    def index(self, cls: int, i: int, j: int) -> int:
        """Index of the orbit of (cls, i, j) in :func:`quotient_labels` order."""
        i, j = self.reduce(i, j)
        return cls * self.det + i * self.d + j

    def reduce_addr(self, addr: VertexAddr) -> VertexAddr:
        i, j = self.reduce(addr.i, addr.j)
        return VertexAddr(addr.cls, i, j)

    def __str__(self):
        return f"({self.a},{self.c},{self.d})"


def quotient_labels(q: LatticeQuotient) -> list[VertexAddr]:
    """Canonical orbit representatives, sorted in (cls, i, j) order: the
    label of index ``cls*det + i*d + j`` is (cls, i, j)."""
    return [
        VertexAddr(cls, i, j)
        for cls in (VClass.W, VClass.U, VClass.V)
        for i in range(q.a)
        for j in range(q.d)
    ]


def build_quotient(q: LatticeQuotient) -> FiniteGraph:
    """Quotient graph on the 3*det orbit representatives.

    The neighbours of (cls, i, j) are (cls', i + di, j + dj) for the fixed
    offsets of its class (:func:`tumbling.lattice.ball_offsets` of radius 1,
    after the root), and each is mapped straight to the index of its orbit
    (:meth:`LatticeQuotient.index`), so adjacency is built on plain integers.

    Raises :class:`DegenerateQuotientError` when two infinite-lattice
    neighbors of some vertex fall into the same orbit (the quotient would
    need a parallel edge).  No neighbor falls onto the vertex itself: it is
    of another class, and the classes' indices are disjoint blocks of det.
    """
    a, c, d, det = q.a, q.c, q.d, q.det
    adj = []
    for cls in (VClass.W, VClass.U, VClass.V):
        offsets = ball_offsets(cls, 1)[1:]
        for i in range(a):
            for j in range(d):
                reduced = []
                for ncls, di, dj in offsets:
                    # q.index(ncls, i + di, j + dj), inlined: this loop is hot
                    k, jj = divmod(j + dj, d)
                    reduced.append(ncls * det + (i + di - k * c) % a * d + jj)
                if len(set(reduced)) != len(reduced):
                    raise DegenerateQuotientError(
                        f"quotient {q} folds the neighborhood of {VertexAddr(cls, i, j)}"
                    )
                adj.append(reduced)
    return FiniteGraph(adj, labels=quotient_labels(q))


@cache
def _forbidden_offsets(radius: int) -> tuple[tuple[int, int], ...]:
    """Block offsets z - y between same-class vertices y != z at distance at
    most 2*radius: 6, 18 and 36 offsets for radius 1, 2 and 3."""
    offsets = {(di, dj) for cls in VClass for c, di, dj in ball_offsets(cls, 2 * radius)[1:] if c == cls}
    return tuple(sorted(offsets))


def validate_quotient(q: LatticeQuotient, radius: int) -> bool:
    """True iff every radius-ball of the quotient matches the infinite lattice.

    The canonical projection must be injective on each infinite ball and must
    not create extra adjacencies between ball members; this makes any local
    condition of the given radius transfer exactly between the quotient and
    the periodic lift.

    Every way this can fail, including the neighborhood folding that makes
    :func:`build_quotient` raise, comes down to one pair: for some vertex x
    the projection identifies some y in the radius-ball B_r(x) with some
    z != y in B_{r+1}(x).

    * A folded neighborhood is such a pair inside B_1(x); a folded ball is
      one inside B_r(x).
    * A quotient edge with no lattice counterpart joins the images of two
      ball members x' and y; it lifts to an edge x'z with z != y, and z lies
      in B_{r+1}(x).
    * Conversely, if z lies outside B_r(x) it is adjacent to some x' in
      B_r(x).  Either y is another neighbor of x' (a folded neighborhood) or
      the quotient edge from x' to the image of z = image of y has no lattice
      counterpart.

    Such pairs are exactly the same-class pairs at distance at most 2r: the
    distance is at most 2r + 1 and even, because the lattice is bipartite
    with U on one side, and a geodesic of length 2r has a midpoint x with
    both ends in B_r(x).  The projection identifies y and z exactly when they
    share a class and (z.i - y.i, z.j - y.j) is a lattice vector, and block
    translations act transitively on each class, so the quotient is valid
    iff no offset of :func:`_forbidden_offsets` lies in the sublattice.  No
    graph is built and no ball is searched per quotient.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if radius >= 3 * q.det:
        return False  # B_r holds a geodesic of r + 1 > 3*det vertices
    return all(q.reduce(di, dj) != (0, 0) for di, dj in _forbidden_offsets(radius))


def enumerate_hnf(max_det: int) -> list[LatticeQuotient]:
    """All HNF sublattices with determinant 1..max_det, in (det, a, c) order."""
    out = []
    for det in range(1, max_det + 1):
        for a in range(1, det + 1):
            if det % a:
                continue
            d = det // a
            out.extend(LatticeQuotient(a, c, d) for c in range(a))
    return out


# ---------------------------------------------------------------------------
# point group: lattice automorphisms fixing u(0,0)
# ---------------------------------------------------------------------------

class LatticeSymmetry(NamedTuple):
    """Automorphism (cls, i, j) -> (cls', M*(i, j) + shift) of the infinite lattice.

    ``m`` is M = [[m[0], m[1]], [m[2], m[3]]] in row-major order.  ``swap``
    exchanges the W and V classes.  ``w_shift``, ``v_shift`` and
    ``u_shift`` are the shifts of the images of W, V and U vertices; the
    point group keeps ``u_shift`` at (0, 0), so it fixes u(0,0).
    """

    m: tuple[int, int, int, int]
    swap: bool
    w_shift: tuple[int, int]
    v_shift: tuple[int, int]
    u_shift: tuple[int, int] = (0, 0)

    def apply(self, x: VertexAddr) -> VertexAddr:
        m0, m1, m2, m3 = self.m
        cls = x.cls
        di, dj = self.u_shift if cls == VClass.U else self.w_shift if cls == VClass.W else self.v_shift
        if self.swap and cls != VClass.U:
            cls = VClass.V if cls == VClass.W else VClass.W
        return VertexAddr(cls, m0 * x.i + m1 * x.j + di, m2 * x.i + m3 * x.j + dj)

    def image(self, q: LatticeQuotient) -> LatticeQuotient:
        """HNF basis of M*L, where L is the sublattice of ``q``."""
        m0, m1, m2, m3 = self.m
        # images of the basis vectors (a, 0) and (c, d)
        x1, y1 = m0 * q.a, m2 * q.a
        x2, y2 = m0 * q.c + m1 * q.d, m2 * q.c + m3 * q.d
        d, s, t = _ext_gcd(y1, y2)
        a = q.det // d
        return LatticeQuotient(a, (s * x1 + t * x2) % a, d)


def _ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(x, y) >= 0 and g = s*x + t*y."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        k = x // y
        x, y = y, x - k * y
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return (x, s0, t0) if x >= 0 else (-x, -s0, -t0)


#: The twelve automorphisms of the infinite lattice that fix u(0,0): the
#: dihedral group D6.  Rotations by odd multiples of 60 degrees swap W and V;
#: the rotations by 120 and 240 degrees keep them.  The identity comes first.
POINT_GROUP: tuple[LatticeSymmetry, ...] = (
    LatticeSymmetry((1, 0, 0, 1), False, (0, 0), (0, 0)),      # identity
    LatticeSymmetry((0, 1, -1, 1), True, (-1, 0), (0, 0)),     # rotation 60
    LatticeSymmetry((-1, 1, -1, 0), False, (0, 1), (-1, 0)),   # rotation 120
    LatticeSymmetry((-1, 0, 0, -1), True, (0, 1), (0, 1)),     # rotation 180
    LatticeSymmetry((0, -1, 1, -1), False, (1, 1), (0, 1)),    # rotation 240
    LatticeSymmetry((1, -1, 1, 0), True, (0, 0), (1, 1)),      # rotation 300
    LatticeSymmetry((1, 0, 1, -1), False, (0, 1), (0, 1)),     # reflections
    LatticeSymmetry((-1, 1, 0, 1), False, (0, 0), (-1, 0)),
    LatticeSymmetry((0, -1, -1, 0), False, (1, 1), (0, 0)),
    LatticeSymmetry((-1, 0, -1, 1), True, (0, 0), (0, 0)),
    LatticeSymmetry((0, 1, 1, 0), True, (-1, 0), (0, 1)),
    LatticeSymmetry((1, -1, 0, -1), True, (0, 1), (1, 1)),
)


def quotient_orbits(
    quots: list[LatticeQuotient],
) -> dict[LatticeQuotient, tuple[LatticeQuotient, LatticeSymmetry]]:
    """Map each quotient to its orbit representative and a symmetry g with
    g.image(representative) == quotient.

    The representative is the orbit member that comes first in (det, a, c)
    order; it maps to itself under the identity.  Only images that are in
    ``quots`` count as orbit members.  Validity at any radius is preserved by
    the point group, so the valid quotients up to a determinant bound are a
    union of whole orbits.
    """
    members = set(quots)
    orbits: dict[LatticeQuotient, tuple[LatticeQuotient, LatticeSymmetry]] = {}
    for q in sorted(members, key=lambda q: (q.det, q.a, q.c)):
        if q in orbits:
            continue
        orbits[q] = (q, POINT_GROUP[0])
        for g in POINT_GROUP[1:]:
            image = g.image(q)
            if image in members and image not in orbits:
                orbits[image] = (q, g)
    return {q: orbits[q] for q in quots}


def induces_isomorphism(g: LatticeSymmetry, rep: LatticeQuotient, q: LatticeQuotient) -> bool:
    """True iff the vertex map x -> q.reduce_addr(g.apply(x)) is an
    isomorphism from the quotient graph of ``rep`` onto that of ``q``.

    Two facts decide it, and no graph is built.  First, g is an automorphism
    of the infinite lattice (:func:`_is_lattice_automorphism`).  Second,
    M*L_rep = L_q: M times each HNF basis vector of ``rep`` reduces to
    (0, 0) under ``q.reduce``, so M*L_rep is a sublattice of L_q, and equal
    dets make the two equal.  Then the map is well defined, since g(x + l)
    = g(x) + M*l; it is a bijection, since g^-1 and M^-1 act the same way in
    reverse; and it maps each quotient edge, the projection of a lattice
    edge xy, to the projection of the lattice edge g(x)g(y), and back.
    """
    if rep.det != q.det or not _is_lattice_automorphism(g):
        return False
    m0, m1, m2, m3 = g.m
    return (
        q.reduce(m0 * rep.a, m2 * rep.a) == (0, 0)
        and q.reduce(m0 * rep.c + m1 * rep.d, m2 * rep.c + m3 * rep.d) == (0, 0)
    )


@cache
def _is_lattice_automorphism(g: LatticeSymmetry) -> bool:
    """|det M| = 1, and g maps the neighbours of each class root
    ``w/u/v(0,0)`` onto the neighbours of the root's image.

    g acts on each class by x -> M*x + shift, and a vertex's neighbours are
    fixed offsets from it, so what holds at the roots holds at every vertex;
    |det M| = 1 makes g a bijection of the lattice.  The answer depends on g
    alone, so each symmetry is certified once per process.
    """
    m0, m1, m2, m3 = g.m
    return abs(m0 * m3 - m1 * m2) == 1 and all(
        {g.apply(y) for y in tb_neighbors(root)} == set(tb_neighbors(g.apply(root)))
        for root in (VertexAddr(cls, 0, 0) for cls in VClass)
    )
