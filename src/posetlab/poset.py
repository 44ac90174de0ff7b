"""Finite posets, order-preserving maps, and order complexes.

A FinitePoset stores its <= relation as one Python int per element, its
up-row: bit j of ``up[i]`` is set when element i <= element j.  The rows
are validated to be reflexive, antisymmetric and transitive on
construction.  Elements are arbitrary hashable labels; positions in the
element list double as bit positions and as vertex indices of the order
complex.

The order complex of a poset has the elements as vertices and the finite
chains as simplices.  Chains are grown one dimension at a time, each by the
elements strictly above its top, so each chain is produced exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simplicial import SimplicialComplex


class PosetError(ValueError):
    """An invalid order relation or an order-violating map.

    `witness`, when given, is the offending pair or element, for the
    `fail` record of a claim that did not hold.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CertificateError(PosetError):
    """A closure retraction certificate failed; carries a witness."""


def _bits(row):
    """The positions of the set bits of a nonnegative int, ascending."""
    # peeling the top bit is cheaper than isolating the lowest (no negation)
    out = []
    while row:
        top = row.bit_length() - 1
        out.append(top)
        row ^= 1 << top
    out.reverse()
    return out


def _down_rows(up):
    """The transposed rows: bit j of ``down[i]`` is set when j <= i."""
    down = [0] * len(up)
    for i, row in enumerate(up):
        bit = 1 << i
        while row:
            j = row.bit_length() - 1
            down[j] |= bit
            row ^= 1 << j
    return down


def _upper_covers(up, i, mask):
    """The upper covers of element i in the subposet on `mask`, ascending.

    The covers walk takes the lowest member left of i's strict up-set
    there and drops every member of that member's row, until none is
    left.  No minimal member is ever dropped, so each is taken; a member
    taken later can lie below one taken earlier only when the element
    order is not a linear extension, so a last pass drops every taken
    member that lies above another taken member.
    """
    rest = (up[i] ^ 1 << i) & mask
    taken = []
    while rest:
        j = (rest & -rest).bit_length() - 1
        taken.append(j)
        rest &= ~up[j]
    if len(taken) < 2:
        return taken
    covers, above = [], 0
    for j in reversed(taken):
        if not above >> j & 1:
            covers.append(j)
        above |= up[j]
    covers.reverse()
    return covers


def _raise_first_fault(elements, up):
    """Raise the first fault of reflexive rows that are not a partial
    order: a pair that breaks antisymmetry, first in row-major order,
    else the first row that is not closed and its first missing bit."""
    unclosed = None
    for i, row in enumerate(up):
        reach = row
        for j in _bits(row ^ 1 << i):
            r = up[j]
            if r >> i & 1:
                raise PosetError(f"antisymmetry fails on {elements[i]!r}, {elements[j]!r}")
            reach |= r
        if unclosed is None and reach != row:
            extra = reach & ~row
            unclosed = i, (extra & -extra).bit_length() - 1
    i, j = unclosed
    raise PosetError(f"transitivity fails: {elements[i]!r} .. {elements[j]!r}")


class FinitePoset:
    """A finite poset on `elements`, given by their up-rows.

    Bit j of ``up[i]`` is set when ``elements[i] <= elements[j]``.  The
    rows are the only order data kept: the code that walks strict
    up-sets or down rows derives them from the rows where it needs them.
    """

    __slots__ = ("elements", "up", "_index")

    def __init__(self, elements, up):
        self.elements = list(elements)
        n = len(self.elements)
        self._index = {x: i for i, x in enumerate(self.elements)}
        if len(self._index) != n:
            raise PosetError("duplicate elements")
        up = tuple(up)
        if len(up) != n:
            raise PosetError(f"{len(up)} rows do not match {n} elements")
        for i, row in enumerate(up):
            # a negative row shifts to -1, so it is refused here too
            if not isinstance(row, int) or row >> n:
                raise PosetError(f"row of {self.elements[i]!r} is not a mask of {n} bits")
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise PosetError(f"not reflexive at {self.elements[i]!r}")
        # the covers walk: a row ORs the row of its lowest member left and
        # drops every member that row holds; a member whose row is not
        # closed yet stops it, and a row that the members' rows add to is
        # a fault.  By induction a row that passes holds only closed
        # members (a dropped one lies in a closed row) and their rows lie
        # within it: the rows are transitive, and of two elements below
        # each other, the row closed first would hold the other still
        # open.  Rows are taken from the last down, which closes every
        # member first while no row holds a bit below its own; at the
        # first row that does, the rows left are taken smallest up-set
        # first, so in a partial order each strict member's row, a proper
        # subset, is closed before it is read, and a member still open is
        # a fault.  So the walk accepts exactly the partial orders.
        closed = bytearray(n)
        order = descending = range(n - 1, -1, -1)
        while True:
            for i in order:
                row = up[i]
                reach = row
                rest = row ^ 1 << i
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    if not closed[j]:
                        break
                    r = up[j]
                    reach |= r
                    rest &= ~r
                if rest or reach != row:
                    break
                closed[i] = 1
            else:
                break
            if not rest or order is not descending:
                _raise_first_fault(self.elements, up)
            count = [row.bit_count() for row in up]
            order = sorted([i for i in range(n) if not closed[i]], key=count.__getitem__)
        self.up = up

    @classmethod
    def from_relation(cls, elements, relation):
        elements = list(elements)
        return cls(
            elements,
            [sum(1 << j for j, y in enumerate(elements) if relation(x, y)) for x in elements],
        )

    @classmethod
    def from_covers(cls, elements, covers):
        """Build from cover pairs (i, j) of indices meaning i < j."""
        elements = list(elements)
        up = [1 << i for i in range(len(elements))]
        for i, j in covers:
            up[i] |= 1 << j
        # transitive closure: widen each row by the rows it reaches until none grows
        grew = True
        while grew:
            grew = False
            for i, row in enumerate(up):
                reach = row
                for j in _bits(row):
                    reach |= up[j]
                if reach != row:
                    up[i] = reach
                    grew = True
        return cls(elements, up)

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
        return bool(self.up[self.index(x)] >> self.index(y) & 1)

    def comparable(self, x, y):
        i, j = self.index(x), self.index(y)
        return bool(self.up[i] >> j & 1 or self.up[j] >> i & 1)

    def comparables(self, x):
        """All elements comparable to x, including x itself.

        Row i holds the elements above x; bit i of each row, those below.
        """
        i = self.index(x)
        above = self.up[i]
        return [
            y
            for j, (y, row) in enumerate(zip(self.elements, self.up))
            if above >> j & 1 or row >> i & 1
        ]

    def covers(self):
        """Cover pairs (i, j): i < j with nothing strictly between."""
        return [(i, j) for i in range(self.n) for j in _upper_covers(self.up, i, -1)]

    # -- constructions -----------------------------------------------------

    def induced(self, subset):
        """The induced subposet on the given elements, in the given order.

        Each row is cut to the subset's mask first, so only the pairs
        inside the subset are walked.
        """
        subset = list(subset)
        try:
            idx = [self._index[x] for x in subset]
        except KeyError:
            # raises the PosetError of the first non-element
            idx = [self.index(x) for x in subset]
        pos = {i: k for k, i in enumerate(idx)}
        inside = sum(1 << i for i in pos)
        rows = []
        for i in idx:
            row = 0
            for j in _bits(self.up[i] & inside):
                row |= 1 << pos[j]
            rows.append(row)
        return FinitePoset([self.elements[i] for i in idx], rows)

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
            and self.up == other.up
        )

    def __hash__(self):
        return hash((tuple(self.elements), self.up))

    def __repr__(self):
        return f"FinitePoset({self.n} elements)"


def _label_text(x):
    if isinstance(x, frozenset):
        return "{" + ",".join(str(e) for e in sorted(x)) + "}"
    return str(x)


class PosetMap:
    """A map of posets, checked to be order-preserving on construction.

    For every source element and every element above it, the target
    up-row of the first image must hold the second image.  The check
    runs on preimage rows: ``pre[t]`` is every source that maps into
    the up-set of the image t, so source i passes when its up-row lies
    within ``pre`` of its image.  That costs O(n + d^2) row operations
    for d distinct images.  A violation is reported at its first pair in
    row-major order (the lowest bit of the first failing row), and that
    pair is the error's witness.
    """

    __slots__ = ("source", "target", "mapping", "_idx")

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        index = target._index
        try:
            idx = [index[self.mapping[x]] for x in source.elements]
        except KeyError:
            # an element with no image, else the first image that is not
            # an element, raises its PosetError
            missing = [x for x in source.elements if x not in self.mapping]
            if missing:
                raise PosetError(f"map not defined on {missing[0]!r}") from None
            idx = [target.index(self.mapping[x]) for x in source.elements]
        fiber = {}
        for i, t in enumerate(idx):
            fiber[t] = fiber.get(t, 0) | 1 << i
        image = sum(1 << t for t in fiber)
        pre = {}
        for t in fiber:
            row = 0
            for u in _bits(target.up[t] & image):
                row |= fiber[u]
            pre[t] = row
        for i, row in enumerate(source.up):
            bad = row & ~pre[idx[i]]
            if bad:
                j = (bad & -bad).bit_length() - 1
                x, y = source.elements[i], source.elements[j]
                raise PosetError(
                    f"not order-preserving: {x!r} <= {y!r} but images are not",
                    witness=(x, y),
                )
        self._idx = idx

    @classmethod
    def from_function(cls, source, target, fn):
        return cls(source, target, {x: fn(x) for x in source.elements})

    def __call__(self, x):
        return self.mapping[x]

    def image(self):
        """The values of the map, in target order."""
        return [self.target.elements[t] for t in sorted(set(self._idx))]


@dataclass(frozen=True)
class RetractionCertificate:
    """Witness that c is a closure operator retracting p onto its image.

    An idempotent, order-preserving endomap with c(x) <= x everywhere (or
    x <= c(x) everywhere) deformation retracts the order complex of p onto
    the order complex of the image.  Homology equality is checked by the
    callers that care.
    """

    poset: FinitePoset
    image: FinitePoset
    direction: str


def closure_retraction(p, c):
    if c.source != p or c.target != p:
        raise CertificateError("map is not an endomap of the given poset")
    idx = c._idx
    for i, t in enumerate(idx):
        if idx[t] != t:
            x = p.elements[i]
            raise CertificateError(
                f"not idempotent at {x!r}", witness=(x, c(x), c(c(x)))
            )
    # c(x) <= x everywhere, x <= c(x) everywhere; the identity is both
    decreasing = all(p.up[t] >> i & 1 for i, t in enumerate(idx))
    increasing = all(p.up[i] >> t & 1 for i, t in enumerate(idx))
    if not (decreasing or increasing):
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
    direction = (
        "both" if decreasing and increasing else "decreasing" if decreasing else "increasing"
    )
    image = p.induced(c.image())
    return RetractionCertificate(poset=p, image=image, direction=direction)


def poset_of_subsets(subsets):
    """FinitePoset of the given frozensets under inclusion.

    Elements are sorted by (size, sorted members), which is both stable and
    independent of input order.  The order is read off int masks of the
    subsets, so a few hundred subsets cost nothing.
    """
    elements = sorted(set(subsets), key=lambda s: (len(s), tuple(sorted(s))))
    bit = _mask_bits(sorted({x for s in elements for x in s}))
    masks = [sum(bit[x] for x in s) for s in elements]
    return FinitePoset(elements, _inclusion_rows([_bits(mask) for mask in masks]))


def _inclusion_rows(members):
    """Up-rows of the inclusion order on sets given as member lists.

    Bit j of row i is set when every member of members[i] is in
    members[j].  Row i is the AND, over each of its members, of the
    positions whose list holds that member, so n lists over m members
    cost O(n*m) ANDs.  A caller with int masks passes each mask's
    `_bits`; a graph's mask table passes the member positions it listed
    its subsets from, so no mask is split into bits again.
    """
    everyone = (1 << len(members)) - 1
    holders = {}
    for k, held in enumerate(members):
        bit = 1 << k
        for b in held:
            holders[b] = holders.get(b, 0) | bit
    rows = []
    for held in members:
        row = everyone
        for b in held:
            row &= holders[b]
        rows.append(row)
    return rows


def _mask_bits(universe):
    """The bit of each member in a subset mask, in the given order.

    At most 63 members, so every mask fits an int64: a larger universe
    is refused before any of its 2^n subsets is listed.
    """
    universe = list(universe)
    if len(universe) > 63:
        raise ValueError(f"{len(universe)} members do not fit an int64 mask (at most 63)")
    return {x: 1 << i for i, x in enumerate(universe)}


#: The most members :func:`subset_lattice` takes.  Its order complex has
#: no beat points to strip, so every chain is built: 8 members already
#: take about a minute and 0.9 GB, and 9 have 13 times as many chains.
SUBSET_LATTICE_MAX_MEMBERS = 8


def subset_lattice(universe):
    """All proper nonempty subsets of `universe`, ordered by inclusion.

    At most :data:`SUBSET_LATTICE_MAX_MEMBERS` members; a larger universe
    is refused before any subset is listed.
    """
    from itertools import combinations

    universe = sorted(universe)
    if len(universe) == 0:
        return FinitePoset([], [])
    _mask_bits(universe)  # refuse more than 63 members as an int64 overflow first
    if len(universe) > SUBSET_LATTICE_MAX_MEMBERS:
        raise ValueError(
            f"subset lattice of {len(universe)} members refused: "
            f"at most SUBSET_LATTICE_MAX_MEMBERS = {SUBSET_LATTICE_MAX_MEMBERS}"
        )
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
    removals in order as ``(x, y, side)`` label triples.  A poset with no
    beat point is its own core: it comes back as itself, not a copy.

    Each pass reads the covers among the survivors; an element with
    exactly one upper (else lower) cover is a beat point whose witness is
    that cover.  Candidates are removed in index order, skipping one
    whose witness went earlier in the same pass: removing anything else
    leaves its witness the minimum (maximum), so every removal stays
    valid.

    The covers are listed once.  Removing elements that are not upper
    covers of x leaves x's upper covers as they were (every other member
    of its up-set lies above one of them), so after a pass only the
    survivors that lost an upper cover are listed again.  Lower covers
    are kept as masks, ``lowers[j]`` holding each i with j among its
    upper covers.
    """
    up = p.up
    n = p.n
    alive = (1 << n) - 1
    uppers = [_upper_covers(up, i, alive) for i in range(n)]
    lowers = [0] * n
    for i, covers in enumerate(uppers):
        for j in covers:
            lowers[j] |= 1 << i
    witnesses = []
    while True:
        gone = 0
        for i in _bits(alive):
            if len(uppers[i]) == 1:
                j, side = uppers[i][0], "up"
            elif (low := lowers[i]) and not low & low - 1:
                j, side = low.bit_length() - 1, "down"
            else:
                continue
            if not alive >> j & 1:
                continue
            alive ^= 1 << i
            gone |= 1 << i
            witnesses.append((p.elements[i], p.elements[j], side))
        if not gone:
            break
        stale = 0
        for x in _bits(gone):
            stale |= lowers[x]
            for j in uppers[x]:
                lowers[j] &= ~(1 << x)
        for i in _bits(stale & alive):
            bit = 1 << i
            for j in uppers[i]:
                lowers[j] &= ~bit
            uppers[i] = _upper_covers(up, i, alive)
            for j in uppers[i]:
                lowers[j] |= bit
    if not witnesses:
        return p, witnesses
    return p.induced([p.elements[i] for i in _bits(alive)]), witnesses


def order_complex(p):
    """The simplicial complex of chains of p.

    Vertices are the elements (in poset element order); a set of elements
    spans a simplex exactly when it is totally ordered.
    """
    strict = [_bits(row ^ 1 << i) for i, row in enumerate(p.up)]
    # one dimension at a time: each chain is extended by every element
    # strictly above its top, so in a linear-extension order every
    # dimension comes out sorted
    layer = [(i,) for i in range(p.n)]
    faces = list(layer)
    while layer:
        layer = [chain + (j,) for chain in layer for j in strict[chain[-1]]]
        faces += layer
    return SimplicialComplex(p.elements, faces)
