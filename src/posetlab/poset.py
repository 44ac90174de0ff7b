"""Finite posets, order-preserving maps, and order complexes.

A FinitePoset stores its full <= relation as a boolean matrix, validated to
be reflexive, antisymmetric and transitive on construction.  Elements are
arbitrary hashable labels; positions in the element list double as vertex
indices of the order complex.

The order complex of a poset has the elements as vertices and the finite
chains as simplices.  Chains are enumerated by ascending depth-first search
over the strict order, so each chain is produced exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplicial import SimplicialComplex


class PosetError(ValueError):
    """An invalid order relation or an order-violating map."""


class CertificateError(PosetError):
    """A closure retraction certificate failed; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _compose(a, b):
    """The composite of two boolean relations: out[i, k] = any_j a[i, j] & b[j, k].

    Row i is the OR of the bit-packed rows of `b` that row i of `a`
    selects.  Nothing is counted, so unlike an integer matmul it cannot
    wrap, and no BLAS threads are started.
    """
    packed = np.packbits(b, axis=1)
    out = np.empty((a.shape[0], packed.shape[1]), dtype=np.uint8)
    for i, row in enumerate(a):
        np.bitwise_or.reduce(packed[row], axis=0, out=out[i])
    return np.unpackbits(out, axis=1, count=b.shape[1]).astype(bool)


class FinitePoset:
    __slots__ = ("elements", "leq", "_index", "_lt")

    def __init__(self, elements, leq):
        self.elements = list(elements)
        n = len(self.elements)
        self._index = {x: i for i, x in enumerate(self.elements)}
        if len(self._index) != n:
            raise PosetError("duplicate elements")
        leq = np.asarray(leq, dtype=bool)
        if n == 0:
            leq = np.zeros((0, 0), dtype=bool)
        if leq.shape != (n, n):
            raise PosetError(f"relation shape {leq.shape} does not match {n} elements")
        if n:
            if not leq.diagonal().all():
                i = int(np.flatnonzero(~leq.diagonal())[0])
                raise PosetError(f"not reflexive at {self.elements[i]!r}")
            sym = leq & leq.T
            if (sym != np.eye(n, dtype=bool)).any():
                i, j = map(int, np.argwhere(sym & ~np.eye(n, dtype=bool))[0])
                raise PosetError(
                    f"antisymmetry fails on {self.elements[i]!r}, {self.elements[j]!r}"
                )
            closure = _compose(leq, leq)
            if (closure & ~leq).any():
                i, j = map(int, np.argwhere(closure & ~leq)[0])
                raise PosetError(
                    f"transitivity fails: {self.elements[i]!r} .. {self.elements[j]!r}"
                )
        leq.setflags(write=False)
        self.leq = leq
        lt = leq & ~np.eye(n, dtype=bool)
        lt.setflags(write=False)
        self._lt = lt

    @classmethod
    def from_relation(cls, elements, relation):
        elements = list(elements)
        n = len(elements)
        leq = np.zeros((n, n), dtype=bool)
        for i, x in enumerate(elements):
            for j, y in enumerate(elements):
                leq[i, j] = bool(relation(x, y))
        return cls(elements, leq)

    @classmethod
    def from_covers(cls, elements, covers):
        """Build from cover pairs (i, j) of indices meaning i < j."""
        elements = list(elements)
        n = len(elements)
        leq = np.eye(n, dtype=bool)
        for i, j in covers:
            leq[i, j] = True
        # transitive closure by repeated squaring
        while True:
            closure = leq | _compose(leq, leq)
            if (closure == leq).all():
                break
            leq = closure
        return cls(elements, leq)

    # -- queries -----------------------------------------------------------

    @property
    def n(self):
        return len(self.elements)

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise PosetError(f"{x!r} is not an element") from None

    def le(self, x, y):
        return bool(self.leq[self.index(x), self.index(y)])

    def comparable(self, x, y):
        i, j = self.index(x), self.index(y)
        return bool(self.leq[i, j] or self.leq[j, i])

    def comparables(self, x):
        """All elements comparable to x, including x itself."""
        i = self.index(x)
        mask = self.leq[i, :] | self.leq[:, i]
        return [self.elements[j] for j in np.flatnonzero(mask)]

    def covers(self):
        """Cover pairs (i, j): i < j with nothing strictly between."""
        lt = self._lt
        via = _compose(lt, lt)
        return [tuple(map(int, ij)) for ij in np.argwhere(lt & ~via)]

    # -- constructions -----------------------------------------------------

    def opposite(self):
        return FinitePoset(self.elements, self.leq.T.copy())

    def induced(self, subset):
        """The induced subposet on the given elements (order preserved)."""
        idx = [self.index(x) for x in subset]
        sub = self.leq[np.ix_(idx, idx)].copy()
        return FinitePoset([self.elements[i] for i in idx], sub)

    # -- serialization -------------------------------------------------------

    def to_dot(self):
        """The Hasse diagram in dot, drawn bottom to top."""
        lines = ["digraph {", "  rankdir=BT;"]
        for i, x in enumerate(self.elements):
            lines.append(f'  n{i} [label="{_label_text(x)}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.elements == other.elements
            and (self.leq == other.leq).all()
        )

    def __repr__(self):
        return f"FinitePoset({self.n} elements)"


def _label_text(x):
    if isinstance(x, frozenset):
        return "{" + ",".join(str(e) for e in sorted(x)) + "}"
    return str(x)


class PosetMap:
    """A map of posets, checked to be order-preserving on construction.

    The check is one numpy comparison: with ``idx`` the target positions
    of the images, ``source.leq`` must imply ``target.leq[idx][:, idx]``.
    A violation is reported at its first pair in row-major order.
    """

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        missing = [x for x in source.elements if x not in self.mapping]
        if missing:
            raise PosetError(f"map not defined on {missing[0]!r}")
        idx = np.array(
            [target.index(self.mapping[x]) for x in source.elements], dtype=np.intp
        )
        bad = source.leq & ~target.leq[np.ix_(idx, idx)]
        if bad.any():
            i, j = np.argwhere(bad)[0]
            x, y = source.elements[i], source.elements[j]
            raise PosetError(f"not order-preserving: {x!r} <= {y!r} but images are not")

    @classmethod
    def from_function(cls, source, target, fn):
        return cls(source, target, {x: fn(x) for x in source.elements})

    def __call__(self, x):
        return self.mapping[x]

    def image(self):
        """The values of the map, in target order."""
        values = {self.mapping[x] for x in self.source.elements}
        return [y for y in self.target.elements if y in values]

    def is_endomap(self):
        return self.source == self.target


@dataclass(frozen=True)
class Monotonicity:
    decreasing: bool
    increasing: bool

    @property
    def classification(self):
        if self.decreasing and self.increasing:
            return "both"
        if self.decreasing:
            return "decreasing"
        if self.increasing:
            return "increasing"
        return "neither"


def is_monotone(f):
    """Classify an endomap: f(x) <= x everywhere, x <= f(x) everywhere, or neither.

    The identity is both decreasing and increasing, so both flags are
    reported rather than a single verdict.
    """
    if not f.is_endomap():
        raise PosetError("monotonicity is only defined for endomaps")
    p = f.source
    dec = all(p.le(f(x), x) for x in p.elements)
    inc = all(p.le(x, f(x)) for x in p.elements)
    return Monotonicity(dec, inc)


@dataclass(frozen=True)
class RetractionCertificate:
    """Witness that c is a closure operator retracting p onto its image.

    An idempotent, order-preserving endomap with c(x) <= x everywhere (or
    x <= c(x) everywhere) deformation retracts the order complex of p onto
    the order complex of the image.  Homology equality is checked by the
    callers that care.
    """

    poset: FinitePoset
    map: PosetMap
    image: FinitePoset
    direction: str


def closure_retraction(p, c):
    if c.source != p or c.target != p:
        raise CertificateError("map is not an endomap of the given poset")
    for x in p.elements:
        if c(c(x)) != c(x):
            raise CertificateError(
                f"not idempotent at {x!r}", witness=(x, c(x), c(c(x)))
            )
    mono = is_monotone(c)
    if mono.classification == "neither":
        bad = next(
            (x for x in p.elements if not (p.le(c(x), x) or p.le(x, c(x)))),
            None,
        )
        if bad is not None:
            raise CertificateError(
                f"not comparable to its image at {bad!r}", witness=(bad, c(bad))
            )
        down = next(x for x in p.elements if not p.le(x, c(x)))
        up = next(x for x in p.elements if not p.le(c(x), x))
        raise CertificateError(
            "map moves some elements down and others up; no closure direction",
            witness=(down, up),
        )
    if mono.classification == "both":
        direction = "both"
    elif mono.decreasing:
        direction = "decreasing"
    else:
        direction = "increasing"
    image = p.induced(c.image())
    return RetractionCertificate(poset=p, map=c, image=image, direction=direction)


def is_order_isomorphic_via(p, q, mapping):
    """Check that an explicit bijection p -> q is an order isomorphism."""
    if p.n != q.n:
        return False
    images = [mapping[x] for x in p.elements]
    if len(set(images)) != p.n or set(images) != set(q.elements):
        return False
    idx = np.array([q.index(y) for y in images], dtype=np.intp)
    return bool((p.leq == q.leq[np.ix_(idx, idx)]).all())


def poset_of_subsets(subsets):
    """FinitePoset of the given frozensets under inclusion.

    Elements are sorted by (size, sorted members), which is both stable and
    independent of input order.  The relation matrix is computed through
    bitmasks, so a few hundred subsets cost nothing.
    """
    elements = sorted(set(subsets), key=lambda s: (len(s), tuple(sorted(s))))
    bit = _mask_bits(sorted({x for s in elements for x in s}))
    masks = np.array(
        [sum(bit[x] for x in s) for s in elements], dtype=np.int64
    ).reshape(-1, 1)
    if len(elements) == 0:
        return FinitePoset([], [])
    leq = (masks & ~masks.T) == 0
    return FinitePoset(elements, leq)


def _mask_bits(universe):
    """The bit of each member in an int64 subset mask, in the given order.

    Bit 63 is the sign bit, so at most 63 members fit.
    """
    universe = list(universe)
    if len(universe) > 63:
        raise ValueError(f"{len(universe)} members do not fit an int64 mask (at most 63)")
    return {x: 1 << i for i, x in enumerate(universe)}


def subset_lattice(universe):
    """All proper nonempty subsets of `universe`, ordered by inclusion."""
    from itertools import combinations

    universe = sorted(universe)
    if len(universe) == 0:
        return FinitePoset([], [])
    _mask_bits(universe)  # refuse more than 63 members before listing 2^n subsets
    subs = [
        frozenset(c)
        for k in range(1, len(universe))
        for c in combinations(universe, k)
    ]
    return poset_of_subsets(subs)


def beat_point_core(p):
    """Strip beat points from p until none are left.

    x is a beat point when its strict up-set has a minimum y (side
    ``"up"``) or its strict down-set has a maximum y (side ``"down"``);
    removing it is a strong deformation retraction of the order complex
    (Stong), so the core has the homotopy type of p.  Returns
    ``(core, witnesses)``: the induced subposet on the survivors, and the
    removals in order as ``(x, y, side)`` label triples.

    Each pass counts covers among the survivors; an element with exactly
    one upper (else lower) cover is a beat point whose witness is that
    cover.  Candidates are removed in index order, skipping one whose
    witness went earlier in the same pass: removing anything else leaves
    its witness the minimum (maximum), so every removal stays valid.
    """
    alive = np.arange(p.n)
    witnesses = []
    while len(alive):
        lt = p._lt[np.ix_(alive, alive)]
        covers = lt & ~_compose(lt, lt)
        ups = covers.sum(axis=1)
        downs = covers.sum(axis=0)
        removed = np.zeros(len(alive), dtype=bool)
        for i in np.flatnonzero((ups == 1) | (downs == 1)):
            if ups[i] == 1:
                j, side = np.flatnonzero(covers[i, :])[0], "up"
            else:
                j, side = np.flatnonzero(covers[:, i])[0], "down"
            if removed[j]:
                continue
            removed[i] = True
            witnesses.append((p.elements[alive[i]], p.elements[alive[j]], side))
        if not removed.any():
            break
        alive = alive[~removed]
    return p.induced([p.elements[i] for i in alive]), witnesses


def order_complex(p):
    """The simplicial complex of chains of p.

    Vertices are the elements (in poset element order); a set of elements
    spans a simplex exactly when it is totally ordered.
    """
    n = p.n
    lt = p._lt
    up = [np.flatnonzero(lt[i, :]).tolist() for i in range(n)]
    faces = []

    def grow(chain, last):
        faces.append(tuple(sorted(chain)))
        for j in up[last]:
            chain.append(j)
            grow(chain, j)
            chain.pop()

    for i in range(n):
        grow([i], i)
    return SimplicialComplex(p.elements, faces)
