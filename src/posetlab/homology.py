"""Exact integer homology of simplicial complexes.

Everything here is computed over the integers with arbitrary precision;
no floating point is involved anywhere.  Smith normal form is done in two
phases: a sparse phase that eliminates +-1 pivots (which is almost all of
the work on boundary matrices of order complexes) and a dense textbook
phase on whatever small residue is left, which is where torsion shows up.

A poset's homology and pi1 verdict are read on its checked beat-point
core complex, and there an acyclic matching comes first (Forman, *Morse
theory for cell complexes*, 1998).  Coreductions from the lowest vertex
(Mrozek and Batko, 2009) make it, with the lowest-dimensional face left
as a critical cell whenever they stall; a replay that shares no code with
them checks the removal order, so every V-path runs backward in it and
the matching is acyclic.  If its critical cells are one vertex plus b
cells of one degree d, the complex is a wedge of b d-spheres: reduced
homology Z^b in degree d, no torsion, and a pi1 verdict that is
"Nontrivial" for d = 1 and b >= 1 and "Trivial" otherwise.  That is the
one proof of a "Trivial" verdict; the empty complex, with no vertex to
start from, is the (-1)-sphere and needs none.  Any other complex falls
back to `reduced_homology`, and its verdict is "Nontrivial" when reduced
H_1 is nonzero and "Unknown" otherwise, so a contractible complex that is
not collapsible, such as the dunce hat, is never proved contractible.
Only the route keeps a memo, of the last 128 complexes it read;
`reduced_homology` keeps no state.  SNF's Euler check is an identity that
cannot see a wrong rank in degree 2 or above; on the core-complex route
that gap is left only where the matching falls back.

Homology is reduced throughout.  The chain complex is augmented with the
empty simplex in dimension -1, so a point has no homology at all and the
empty complex has a single Z in degree -1.  That convention is load-bearing:
it makes combinatorial Alexander duality degreewise exact even when one
side of the pairing is the empty poset.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, cycle, repeat

from .poset import _bits, _down_rows, beat_point_core, order_complex
from .simplicial import SimplicialComplex

PI1_TRIVIAL = "Trivial"
PI1_NONTRIVIAL = "Nontrivial"
PI1_UNKNOWN = "Unknown"


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect in posetlab itself.

    Deliberately not a ValueError, so it is never mistaken for bad input.
    """


@dataclass(frozen=True)
class SNFResult:
    rank: int
    factors: tuple

    def torsion(self):
        return tuple(f for f in self.factors if f > 1)


def snf_from_entries(entries):
    """Smith normal form data of the sparse matrix ``{(row, col): value}``.

    Returns the rank and the full tuple of invariant factors
    d1 | d2 | ... | dr, the ones included.

    >>> snf_from_entries({(0, 0): 2, (1, 1): 3}).factors
    (1, 6)
    >>> snf_from_entries({(0, 0): 1, (1, 1): 1}).factors
    (1, 1)
    >>> snf_from_entries({})
    SNFResult(rank=0, factors=())
    """
    rows = {}
    cols = {}
    for (i, j), v in entries.items():
        if v == 0:
            continue
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, set()).add(i)

    pivots = _eliminate_unit_pivots(rows, cols)
    dense = _dense_snf(_gather_dense(rows))
    # each dense pivot divides the whole block left after it, so the
    # diagonal is already the chain d1 | d2 | ...; a unit divides all
    for a, b in zip(dense, dense[1:]):
        if b % a:
            raise InvariantError(f"dense SNF diagonal {dense} is not a divisor chain")
    factors = [1] * len(pivots) + dense
    return SNFResult(rank=len(factors), factors=tuple(factors))


def _eliminate_unit_pivots(rows, cols):
    """Eliminate +-1 pivots by integer row operations; returns the pivot
    columns in pivot order.

    Rows are visited shortest first through a lazy heap; within a row the
    unit entry in the thinnest column is chosen, the lower column on a
    tie.  Short pivot rows keep fill-in small, which is what makes the
    big order complexes tractable.  A row popped without a unit entry
    re-enters the heap whenever a later elimination touches it, so no
    unit pivot is ever missed.  A key (length, row) names its row, so the
    keys alone fix the order of the pops, however the heap was seeded.
    """
    heap = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, r = heapq.heappop(heap)
        row = rows.get(r)
        if row is None or len(row) != length:
            continue
        c = None
        for j, v in row.items():
            if v == 1 or v == -1:
                size = len(cols[j])
                if c is None or size < least or (size == least and j < c):
                    c, least, pv = j, size, v
        if c is None:
            continue
        pivot_row = rows.pop(r)
        for j in pivot_row:
            col = cols[j]
            col.discard(r)
            if not col:
                del cols[j]
        del pivot_row[c]
        hit = cols.pop(c, ())
        for i in sorted(hit) if len(hit) > 1 else hit:
            other = rows[i]
            mult = other.pop(c) * pv  # other[c] / pv since pv is a unit
            for j, v in pivot_row.items():
                new = other.get(j, 0) - mult * v
                if new:
                    if j not in other:
                        cols.setdefault(j, set()).add(i)
                    other[j] = new
                elif j in other:
                    del other[j]
                    col = cols[j]
                    col.discard(i)
                    if not col:
                        del cols[j]
            if other:
                heapq.heappush(heap, (len(other), i))
            else:
                del rows[i]
        pivots.append(c)
    return pivots


def _gather_dense(rows):
    if not rows:
        return []
    row_ids = sorted(rows)
    col_ids = sorted({j for r in rows.values() for j in r})
    cpos = {j: k for k, j in enumerate(col_ids)}
    dense = [[0] * len(col_ids) for _ in row_ids]
    for a, i in enumerate(row_ids):
        for j, v in rows[i].items():
            dense[a][cpos[j]] = v
    return dense


def _dense_snf(a):
    """Diagonal of the Smith form of a small dense integer matrix,
    nonzero and ascending in the divisor order."""
    if not a:
        return []
    m, n = len(a), len(a[0])
    diag = []
    t = 0
    while True:
        # find the entry of least absolute value in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block
            offender = None
            d = a[t][t]
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, n):
                a[t][j] += a[offender][j]
        diag.append(abs(a[t][t]))
        t += 1
        if t == m or t == n:
            break
    return [d for d in diag if d]


# -- reduced homology -------------------------------------------------------


@dataclass(frozen=True)
class HomologyResult:
    """Reduced homology, one (betti, torsion) pair per degree.

    Degrees with betti 0 and no torsion are dropped, so equality of results
    is equality of the nonzero part.  Degree -1 appears only for the empty
    complex.
    """

    groups: tuple  # ((degree, betti, torsion-tuple), ...)

    @classmethod
    def from_dicts(cls, betti, torsion):
        degs = sorted(set(betti) | set(torsion))
        groups = []
        for d in degs:
            b = betti.get(d, 0)
            t = tuple(torsion.get(d, ()))
            if b or t:
                groups.append((d, b, t))
        return cls(tuple(groups))

    @classmethod
    def sphere(cls, n):
        return cls(((n, 1, ()),)) if n >= -1 else cls(())

    def betti(self, d):
        for deg, b, _ in self.groups:
            if deg == d:
                return b
        return 0

    def torsion(self, d):
        for deg, _, t in self.groups:
            if deg == d:
                return t
        return ()

    def is_trivial(self):
        return not self.groups

    def max_degree(self):
        return max((d for d, _, _ in self.groups), default=None)

    def cohomology(self):
        """The reduced integer cohomology, by universal coefficients.

        Free parts agree with homology degreewise; the torsion of H^d is
        the torsion of reduced H_(d-1).
        """
        betti = {}
        torsion = {}
        for d, b, t in self.groups:
            if b:
                betti[d] = b
            if t:
                torsion[d + 1] = t
        return HomologyResult.from_dicts(betti, torsion)

    def concentrated_in(self, degree):
        """True when every nonzero group sits in the given degree, torsion-free."""
        return all(d == degree and not t for d, _, t in self.groups)

    def to_json_obj(self):
        top_degree = self.max_degree()
        top_degree = -1 if top_degree is None else top_degree
        return [
            {"degree": d, "betti": self.betti(d), "torsion": list(self.torsion(d))}
            for d in range(-1, top_degree + 1)
        ]

    def __str__(self):
        if not self.groups:
            return "0"
        parts = []
        for d, b, t in self.groups:
            term = f"H~{d}="
            bits = []
            if b:
                bits.append(f"Z^{b}" if b > 1 else "Z")
            bits.extend(f"Z/{f}" for f in t)
            parts.append(term + "+".join(bits))
        return ", ".join(parts)


def boundary_entries(k, d):
    """Sparse entries of the boundary map C_d -> C_(d-1), augmented at d=0.

    Rows are numbered by the (d-1)-faces of k.  `combinations(face, d)`
    lists a face's facets with its last vertex dropped first, so their
    signs run (-1)^d .. (-1)^0.
    """
    faces = k.faces(d)
    if d == 0:
        return dict.fromkeys(zip(repeat(0), range(len(faces))), 1)
    rows = map(
        k.face_index(d - 1).__getitem__,
        chain.from_iterable(map(combinations, faces, repeat(d))),
    )
    cols = chain.from_iterable(map(repeat, range(len(faces)), repeat(d + 1)))
    return dict(zip(zip(rows, cols), cycle([(-1) ** t for t in range(d, -1, -1)])))


def reduced_homology(k):
    """Reduced integer homology of a complex, all degrees at once.

    Each degree's full boundary matrix gets one SNF.  Nothing is
    remembered: every call builds and reduces the matrices again.

    >>> triangle = SimplicialComplex.from_facets("abc", [(0, 1), (1, 2), (0, 2)])
    >>> str(reduced_homology(triangle))
    'H~1=Z'
    """
    top = k.dim
    counts = {-1: 1}
    ranks = {}
    torsion_at = {}
    for d in range(0, top + 1):
        counts[d] = k.num_faces(d)
        res = snf_from_entries(boundary_entries(k, d))
        ranks[d] = res.rank
        torsion_at[d] = res.torsion()
    ranks[top + 1] = 0
    torsion_at[top + 1] = ()

    betti = {}
    torsion = {}
    for d in range(-1, top + 1):
        b = counts[d] - ranks.get(d, 0) - ranks[d + 1]
        t = torsion_at[d + 1]
        if b:
            betti[d] = b
        if t:
            torsion[d] = t
    result = HomologyResult.from_dicts(betti, torsion)

    # Euler characteristic bookkeeping check, reduced form.  The ranks
    # telescope out of it, so it guards the arithmetic above but cannot see
    # a wrong SNF rank; the 1-skeleton's components give H~_-1 and H~_0
    # without SNF, which catches a wrong rank in degrees 0 and 1.
    chi_faces = sum((-1) ** d * c for d, c in counts.items())
    chi_betti = sum((-1) ** d * b for d, b in betti.items())
    if chi_faces != chi_betti:
        raise InvariantError("rank bookkeeping out of balance")
    pieces = len(k.components())
    if (
        any(b < 0 for b in betti.values())
        or betti.get(-1, 0) != (0 if pieces else 1)
        or betti.get(0, 0) != max(pieces - 1, 0)
    ):
        raise InvariantError(f"SNF ranks disagree with {pieces} components")
    return result


def check_beat_witnesses(p, core, witnesses):
    """Replay beat-point removals against `p.up`; raise on a bad step.

    Each witness ``(x, y, side)`` must remove a survivor x whose strict
    up-set (``"up"``) among the survivors has the survivor y as its
    minimum, or whose strict down-set (``"down"``) has y as its maximum.
    The survivors must then be exactly `core`, with the induced order.
    A failure is a defect in the reduction, so it raises InvariantError.

    The replay works on whole rows of p, masked by the survivors; it
    calls neither `beat_point_core` nor `induced`, the code it checks.
    """
    index = {x: i for i, x in enumerate(p.elements)}
    alive = (1 << p.n) - 1
    down = None
    for x, y, side in witnesses:
        i, j = index.get(x), index.get(y)
        if i is None or j is None:
            raise InvariantError(f"beat witness ({x!r}, {y!r}) names a non-element")
        if not alive >> i & 1:
            raise InvariantError(f"beat point {x!r} removed twice")
        if not alive >> j & 1:
            raise InvariantError(f"witness {y!r} of {x!r} was already removed")
        if side == "up":
            rows = p.up
        elif side == "down":
            if down is None:
                down = _down_rows(p.up)
            rows = down
        else:
            raise InvariantError(f"beat witness for {x!r} has side {side!r}")
        # y is in x's strict side-set, and that set lies within y's side-set
        strict = rows[i] & alive & ~(1 << i)
        if not strict >> j & 1 or strict & ~rows[j]:
            extreme = "minimum" if side == "up" else "maximum"
            raise InvariantError(
                f"{y!r} is not the {extreme} of the strict {side}-set of {x!r}"
            )
        alive &= ~(1 << i)
    # spread each core row back over p's positions and compare it with
    # p's own row among the survivors; when every element survives, the
    # rows compare as they are
    survivors = _bits(alive)
    if [p.elements[i] for i in survivors] != core.elements:
        raise InvariantError("beat-point survivors do not match the core")
    if len(survivors) == p.n:
        if core.up != p.up:
            raise InvariantError("beat-point survivors do not match the core")
        return
    for k, i in enumerate(survivors):
        row = 0
        for b in _bits(core.up[k]):
            row |= 1 << survivors[b]
        if row != p.up[i] & alive:
            raise InvariantError("beat-point survivors do not match the core")


# The suites hand core_complex the same poset again and again (the x
# poset of one graph is reduced by three verifiers), nearly always within
# a few calls, so a short LRU catches the repeats at little memory.
_CORE_COMPLEX_CACHE_MAX = 16


@lru_cache(maxsize=_CORE_COMPLEX_CACHE_MAX)
def core_complex(p):
    """The order complex of p's beat-point core, every removal checked.

    Removing a beat point is a strong deformation retraction, so this
    complex has the homology and fundamental group of ``order_complex(p)``
    with (usually far) fewer faces.

    The complex is remembered in a least-recently-used memo of at most
    ``_CORE_COMPLEX_CACHE_MAX`` entries, keyed on p's exact content: its
    element labels (the complex's vertices) and its up-rows, compared for
    equality, not by hash alone.  A call that raises stores nothing, so
    a failed ``check_beat_witnesses`` raises again on every call.
    Callers must not mutate the complex.
    """
    core, witnesses = beat_point_core(p)
    check_beat_witnesses(p, core, witnesses)
    return order_complex(core)


# -- acyclic matchings ---------------------------------------------------------


def _coreduction_matching(k):
    """An acyclic matching on the faces of k, as the order they leave in.

    Coreductions (Mrozek and Batko, 2009) from the lowest vertex: a face
    with exactly one facet left leaves together with that facet, as a
    pair.  When none is left, the lowest face of the lowest dimension
    still there leaves alone, as a critical cell; its facets are gone by
    then.  Each step is ``(t, s)``, t the facet that s is paired with,
    or None when s is critical; faces are k's vertex-index tuples.
    """
    faces = list(k.all_faces())
    ident = dict(zip(faces, range(len(faces))))
    cofaces = [[] for _ in faces]
    left = [0] * len(faces)  # facets still there
    rest = [0] * len(faces)  # their ids xor-ed: the last one, when one is left
    for s, face in enumerate(faces):
        if len(face) > 1:
            left[s] = len(face)
            for t in map(ident.__getitem__, combinations(face, len(face) - 1)):
                cofaces[t].append(s)
                rest[s] ^= t
    alive = [True] * len(faces)
    order = []
    # faces are listed by dimension, so the first face still there is
    # the stall rule's critical cell
    for c, face in enumerate(faces):
        if not alive[c]:
            continue
        alive[c] = False
        order.append((None, face))
        queue = []
        for u in cofaces[c]:
            left[u] -= 1
            rest[u] ^= c
            if left[u] == 1:
                queue.append(u)
        for s in queue:  # grows as it is walked: first in, first out
            if not alive[s] or left[s] != 1:
                continue
            t = rest[s]
            alive[s] = alive[t] = False
            order.append((faces[t], faces[s]))
            for x in (t, s):
                for u in cofaces[x]:
                    left[u] -= 1
                    rest[u] ^= x
                    if left[u] == 1 and alive[u]:
                        queue.append(u)
    return order


def _replay_matching(k, order):
    """Check a removal order of k's faces; return the number of critical
    cells in each dimension, as a dict.

    Each step ``(t, s)`` removes s alone, as a critical cell, when t is
    None, and then every facet of s must be gone already.  Otherwise t
    must be a facet of s, and every other facet of s must be gone.  No
    face may leave twice, and every face of k must leave.  A gradient
    path leaves s through one of its other facets, which left earlier,
    along with its own partner; so every V-path runs backward in the
    order and none closes: the matching is acyclic (Forman, 1998).  A
    failure is a defect in the matching, so it raises InvariantError.

    The replay reads facets straight off the vertex tuples; it shares no
    code with :func:`_coreduction_matching`, the code it checks.
    """
    gone = set()
    critical = {}
    for t, s in order:
        if s in gone or t in gone:
            raise InvariantError(f"step {(t, s)} removes a face twice")
        d = len(s) - 1
        facets = list(combinations(s, d)) if d else []
        if t is None:
            if not gone.issuperset(facets):
                raise InvariantError(f"critical cell {s} comes before its facets")
            critical[d] = critical.get(d, 0) + 1
        else:
            if t not in facets:
                raise InvariantError(f"paired faces {t} and {s} are not incident")
            facets.remove(t)
            if not gone.issuperset(facets):
                raise InvariantError(f"pair {(t, s)} comes before another facet of {s}")
            gone.add(t)
        gone.add(s)
    faces = set(k.all_faces())
    if gone != faces:
        stray = min(gone - faces, default=None)
        if stray is not None:
            raise InvariantError(f"the matching removes {stray}, which is not a face")
        raise InvariantError(f"the matching never removes {min(faces - gone)}")
    return critical


# Only `_core_homotopy` reads and writes this memo.  An entry is
# (homology, pi1 verdict).
_homology_cache = OrderedDict()
_HOMOLOGY_CACHE_MAX = 128


def _core_homotopy(k):
    """(homology, pi1 verdict) of a core complex.

    The empty complex has no vertex to start a matching from: it is the
    (-1)-sphere, with no component whose fundamental group could be
    nontrivial.  Otherwise the coreduction matching is replayed on every
    call that makes it.  If its critical cells are one vertex plus b
    cells of one degree d, k is a wedge of b d-spheres (b + 1 points when
    d = 0): its reduced homology is Z^b in degree d, and its fundamental
    group is free of rank b when d = 1 and trivial otherwise.  Any other
    matching falls back to :func:`reduced_homology`, and the verdict to
    "Nontrivial" when reduced H_1 is nonzero, else "Unknown".  Either
    result is kept in a least-recently-used memo of at most
    ``_HOMOLOGY_CACHE_MAX`` complexes, keyed on the face lists.
    """
    if not k.vertices:
        return HomologyResult.sphere(-1), PI1_TRIVIAL
    key = k.structure_key()
    entry = _homology_cache.get(key)
    if entry is not None:
        _homology_cache.move_to_end(key)
        return entry
    critical = _replay_matching(k, _coreduction_matching(k))
    points = critical.pop(0)  # the replay starts every order with a vertex
    if len(critical) > 1 or (critical and points > 1):
        h = reduced_homology(k)
        entry = h, PI1_NONTRIVIAL if h.betti(1) or h.torsion(1) else PI1_UNKNOWN
    else:
        degree, b = critical.popitem() if critical else (0, points - 1)
        h = HomologyResult.from_dicts({degree: b}, {})
        if h.betti(0) != len(k.components()) - 1:
            raise InvariantError(f"{points} critical vertices disagree with k's components")
        entry = (h, PI1_NONTRIVIAL if degree == 1 and b else PI1_TRIVIAL)
    _homology_cache[key] = entry
    if len(_homology_cache) > _HOMOLOGY_CACHE_MAX:
        _homology_cache.popitem(last=False)
    return entry


def poset_homology(p):
    """Reduced integer homology of the order complex of the poset p.

    It is computed on p's checked beat-point core (:func:`core_complex`),
    which has the same homology with (usually far) fewer faces: read off
    a checked acyclic matching where one certifies a wedge of spheres,
    by SNF otherwise.  Two memos serve it, and neither can stand in for
    the other: the core complex is remembered by poset, the homology by
    face list, since distinct posets often reduce to the same core
    complex.
    """
    return _core_homotopy(core_complex(p))[0]


# -- contractibility and fundamental group ----------------------------------


def homotopy_verdict(p, claim_holds):
    """The record status of a homology claim about the poset p's order
    complex, with its pi1 verdict.

    A claim that does not hold fails, pi1 not evaluated.  Otherwise the
    verdict is the one :func:`_core_homotopy` stored beside the homology
    of p's checked beat-point core, the complex that
    :func:`poset_homology` read.  "Trivial", which only a matched wedge
    of spheres of degree other than 1 (or the empty complex) gets,
    certifies the homotopy type ("pass"); any other verdict leaves it
    "homology-only".  Every claim is free homology in one degree, so a
    holding claim allows a nonzero reduced H_1 only for a wedge of
    circles, whose free fundamental group is nontrivial and consistent
    with the claim: "Nontrivial" never contradicts it.
    """
    if not claim_holds:
        return "fail", "not-evaluated"
    pi1 = _core_homotopy(core_complex(p))[1]
    return ("pass" if pi1 == PI1_TRIVIAL else "homology-only"), pi1


def certify_contractible(p):
    """The record status of the claim that p's order complex is contractible.

    The claim, trivial reduced homology, is decided on p's checked
    beat-point core by :func:`homotopy_verdict`: "pass" where a matching
    collapses the core to a point, "homology-only" where the homology is
    trivial but no matching proves it (the dunce hat), or "fail".  A cone
    needs no shortcut, since its core is one point.  The empty poset
    fails: its order complex is the empty complex.
    """
    return homotopy_verdict(p, poset_homology(p).is_trivial())[0]


# -- Alexander duality -------------------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    sphere_dim: int
    hypothesis_ok: bool
    duality_ok: bool
    sub_homology: HomologyResult
    complement_cohomology: HomologyResult
    mismatches: tuple

    @property
    def ok(self):
        return self.hypothesis_ok and self.duality_ok


def alexander_duality_check(p, q_elements, sphere_dim):
    """Check H~_i(q) == H~^(n-i-1)(p minus q) degreewise, torsion included.

    `p` must realize a homology n-sphere for the stated n; that hypothesis
    is verified first and reported separately from duality failures, so a
    bad ambient poset is never mistaken for a duality violation.
    """
    q_elements = list(q_elements)
    q_set = set(q_elements)
    for x in q_elements:
        p.index(x)
    hypothesis_ok = poset_homology(p) == HomologyResult.sphere(sphere_dim)

    q_poset = p.induced(q_elements)
    rest = [x for x in p.elements if x not in q_set]
    c_poset = p.induced(rest)
    sub_h = poset_homology(q_poset)
    comp_hh = poset_homology(c_poset).cohomology()

    mismatches = []
    for i in range(-1, sphere_dim + 1):
        j = sphere_dim - i - 1
        if sub_h.betti(i) != comp_hh.betti(j) or sub_h.torsion(i) != comp_hh.torsion(j):
            mismatches.append(
                (
                    i,
                    (sub_h.betti(i), sub_h.torsion(i)),
                    (comp_hh.betti(j), comp_hh.torsion(j)),
                )
            )
    return DualityReport(
        sphere_dim=sphere_dim,
        hypothesis_ok=hypothesis_ok,
        duality_ok=not mismatches,
        sub_homology=sub_h,
        complement_cohomology=comp_hh,
        mismatches=tuple(mismatches),
    )


# -- sparse triplet text format ----------------------------------------------


def read_triplet_matrix(text):
    """Parse "rows cols" on the first line, then "i j value" entries.

    Blank lines and lines starting with '#' are ignored.  Returns
    (entries, nrows, ncols); the entries suit snf_from_entries.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty matrix text")
    first = lines[0].split()
    if len(first) != 2:
        raise ValueError("first line must be: nrows ncols")
    nrows, ncols = int(first[0]), int(first[1])
    if nrows < 0 or ncols < 0:
        raise ValueError(f"negative matrix size {nrows}x{ncols}")
    entries = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad triplet line: {ln!r}")
        i, j, v = int(parts[0]), int(parts[1]), int(parts[2])
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
        if v:
            entries[(i, j)] = entries.get((i, j), 0) + v
    return entries, nrows, ncols
