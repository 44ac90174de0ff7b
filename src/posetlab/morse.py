"""Level-function certificates of poset contractibility.

A certificate partitions the elements of a finite poset into levels
0, 1, ..., k.  It is *valid* when

* the subposet at level 0 is certified contractible (in practice it is
  the set of all elements comparable to some center, whose order
  complex is a cone),
* each later level is an antichain, and
* for every element x at a level above 0, the full subcomplex of the
  order complex spanned by the elements *below x's level* that are
  comparable to x — the descending complex of x — is certified
  contractible.

Building the order complex level by level then attaches each new vertex
along a contractible complex, so a valid certificate proves the whole
order complex contractible.  The full subcomplex of the order complex
on a set of elements is the order complex of the induced subposet on
them, so each descending complex is certified as the descending poset
of x by :func:`posetlab.homology.certify_contractible`: trivial
homology plus a trivial fundamental group on the checked beat-point
core (a cone's core is one point), never a heuristic.  A certificate
whose checks all pass but whose full order complex has nonzero reduced
homology would indicate a bug and raises InvariantError.

The search routine looks for a certificate with at most three levels,
taking level 0 to be the comparables of some center element, and
examines at most ``DEFAULT_BUDGET`` middle levels per center.  Within
that family and that budget the search is exhaustive, so a `None`
result with `exhausted=True` is a proof that no such certificate
exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .homology import InvariantError, certify_contractible, reduced_homology
from .poset import FinitePoset, order_complex

#: The most candidate middle levels :func:`search_certificate` examines per center.
DEFAULT_BUDGET = 4096


@dataclass(frozen=True)
class LevelCertificate:
    """An ordered partition of a poset's elements into levels."""

    levels: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "levels", tuple(tuple(level) for level in self.levels)
        )

    def value_of(self):
        values = {}
        for i, level in enumerate(self.levels):
            for x in level:
                values[x] = i
        return values


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of validating one level certificate against one poset."""

    ok: bool
    reason: str


def descending_poset(p: FinitePoset, values, x) -> FinitePoset:
    """The induced subposet on the elements comparable to x whose level
    is strictly below x's; its order complex is x's descending complex."""
    cutoff = values[x]
    keep = [
        y for y in p.elements if y != x and values[y] < cutoff and p.comparable(x, y)
    ]
    return p.induced(keep)


def verify_certificate(p: FinitePoset, cert: LevelCertificate) -> CertificateCheck:
    """Validate a level certificate against a poset.

    Raises InvariantError if every local check passes while the full
    order complex has nonzero reduced homology (impossible unless the
    implementation is wrong).
    """
    if p.n == 0:
        return CertificateCheck(False, "empty poset has no certificate")
    flat = [x for level in cert.levels for x in level]
    if sorted(map(p.index, flat)) != list(range(p.n)):
        return CertificateCheck(False, "levels do not partition the elements")
    if not cert.levels or not cert.levels[0]:
        return CertificateCheck(False, "level 0 is empty")

    values = cert.value_of()

    base = p.induced(list(cert.levels[0]))
    base_status = certify_contractible(base)
    if base_status != "pass":
        return CertificateCheck(
            False, f"level 0 is not certified contractible ({base_status})"
        )

    for i, level in enumerate(cert.levels[1:], start=1):
        for a, b in combinations(level, 2):
            if p.comparable(a, b):
                return CertificateCheck(
                    False, f"level {i} is not an antichain ({a!r} ~ {b!r})"
                )

    for level in cert.levels[1:]:
        for x in level:
            s = certify_contractible(descending_poset(p, values, x))
            if s != "pass":
                return CertificateCheck(
                    False, f"descending complex of {x!r} not certified ({s})"
                )

    if not reduced_homology(order_complex(p)).is_trivial():
        raise InvariantError(
            "level certificate validated but homology is nonzero; "
            "this indicates a defect in the certificate checker"
        )
    return CertificateCheck(True, "all levels verified")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a certificate search.

    `certificate` is None when none was found; `exhausted` tells whether
    the search space was fully explored (making the failure a proof that
    no certificate of the searched shape exists).  `check` is the
    :func:`verify_certificate` outcome the certificate was accepted on
    (None when none was found).
    """

    certificate: LevelCertificate | None
    exhausted: bool
    centers_tried: int
    check: CertificateCheck | None

    @property
    def found(self) -> bool:
        return self.certificate is not None


def search_certificate(p: FinitePoset) -> SearchResult:
    """Search for a valid certificate with at most three levels whose
    level 0 is the set of comparables of some element.

    Centers are tried from largest comparable-set to smallest.  For each,
    one level is tried, then middle levels, enumerated from largest to
    smallest in ``combinations`` order over the elements whose
    first-level descending complex is already contractible, at most
    ``DEFAULT_BUDGET`` of them per center; the rest is the top level,
    empty (two levels) only for the first.
    Each certificate is returned with its :func:`verify_certificate`
    check.  Deterministic throughout.
    """
    if p.n == 0:
        return SearchResult(None, True, 0, None)

    exhausted = True
    order = sorted(
        p.elements, key=lambda x: (-len(p.comparables(x)), p.index(x))
    )

    def antichain(elems) -> bool:
        return not any(p.comparable(a, b) for a, b in combinations(elems, 2))

    for tried, center in enumerate(order, start=1):
        level0 = p.comparables(center)
        rest = sorted(
            (x for x in p.elements if x not in set(level0)), key=p.index
        )
        if not rest:
            cert = LevelCertificate((level0,))
            return SearchResult(cert, exhausted, tried, verify_certificate(p, cert))

        values = {x: 0 for x in level0}
        for x in rest:
            values[x] = 1
        candidates = [
            x
            for x in rest
            if certify_contractible(descending_poset(p, values, x)) == "pass"
        ]
        middles = chain.from_iterable(
            combinations(candidates, size) for size in range(len(candidates), 0, -1)
        )
        for examined, middle in enumerate(middles, start=1):
            if examined > DEFAULT_BUDGET:
                exhausted = False
                break
            if not antichain(middle):
                continue
            top = tuple(x for x in rest if x not in set(middle))
            if top and not antichain(top):
                continue
            cert = LevelCertificate((level0, middle, top) if top else (level0, middle))
            chk = verify_certificate(p, cert)
            if chk.ok:
                return SearchResult(cert, exhausted, tried, chk)

    return SearchResult(None, exhausted, len(order), None)
