"""Finite abstract simplicial complexes.

A complex is stored as its full face list, stratified by dimension.  Faces
are tuples of vertex indices in increasing index order; the labels live in
a separate vertex list.  The augmented chain complex used for reduced
homology treats the empty simplex as the unique face of dimension -1, so
the empty complex is the (-1)-sphere rather than nothing at all.
"""

from __future__ import annotations

from itertools import chain, combinations, repeat

from .multigraph import _components_of


class ComplexError(ValueError):
    """A face family that is not closed, or a malformed face."""


class SimplicialComplex:
    __slots__ = ("vertices", "_faces", "_index", "_components")

    def __init__(self, vertices, faces):
        """`faces`: iterable of tuples of vertex indices; must be closed.

        Every vertex in `vertices` must occur as a 0-face.  Faces may be
        given in any order and need not be sorted internally.
        """
        self.vertices = list(vertices)
        n = len(self.vertices)
        by_dim = {}
        seen = set()
        for face in faces:
            face = tuple(sorted(face))
            if not face:
                continue
            if len(set(face)) != len(face):
                raise ComplexError(f"repeated vertex in face {face}")
            if face[0] < 0 or face[-1] >= n:
                raise ComplexError(f"face {face} uses an undeclared vertex")
            if face in seen:
                continue
            seen.add(face)
            by_dim.setdefault(len(face) - 1, []).append(face)
        for d, fl in by_dim.items():
            fl.sort()
        # closure: every facet of every face must be present; a dimension
        # that fails is walked again to name its first face and facet
        for d in sorted(by_dim, reverse=True):
            if d == 0 or seen.issuperset(
                chain.from_iterable(map(combinations, by_dim[d], repeat(d)))
            ):
                continue
            for face in by_dim[d]:
                for k in range(len(face)):
                    sub = face[:k] + face[k + 1 :]
                    if sub not in seen:
                        raise ComplexError(f"face {face} missing facet {sub}")
        missing = [i for i in range(n) if (i,) not in seen]
        if missing:
            raise ComplexError(f"vertex {missing[0]} has no 0-face")
        self._faces = {d: tuple(fl) for d, fl in sorted(by_dim.items())}
        self._index = None
        self._components = None

    @classmethod
    def from_facets(cls, vertices, facets):
        faces = set()
        for facet in facets:
            facet = tuple(sorted(facet))
            for k in range(1, len(facet) + 1):
                faces.update(combinations(facet, k))
        return cls(vertices, faces)

    # -- queries -----------------------------------------------------------

    @property
    def dim(self):
        return max(self._faces, default=-1)

    def faces(self, d):
        return self._faces.get(d, ())

    def num_faces(self, d=None):
        if d is not None:
            return len(self._faces.get(d, ()))
        return sum(len(fl) for fl in self._faces.values())

    def all_faces(self):
        for d in sorted(self._faces):
            yield from self._faces[d]

    def face_index(self, d):
        if self._index is None:
            self._index = {}
        if d not in self._index:
            self._index[d] = {f: i for i, f in enumerate(self.faces(d))}
        return self._index[d]

    def components(self):
        """Vertex index sets of the connected components of the 1-skeleton."""
        if self._components is None:
            classes = _components_of(range(len(self.vertices)), self.faces(1))
            self._components = sorted(classes.values(), key=min)
        return [set(c) for c in self._components]

    def full_subcomplex(self, vertex_indices):
        """All faces whose vertices lie in the given index set."""
        keep = sorted(set(vertex_indices))
        pos = {v: i for i, v in enumerate(keep)}
        kset = set(keep)
        faces = []
        for face in self.all_faces():
            if kset.issuperset(face):
                faces.append(tuple(pos[v] for v in face))
        return SimplicialComplex([self.vertices[v] for v in keep], faces)

    # -- identity ------------------------------------------------------------

    def structure_key(self):
        """A hashable fingerprint: equal keys mean identical face lists."""
        return tuple((d, self._faces[d]) for d in sorted(self._faces))

    def __repr__(self):
        counts = ",".join(f"{len(self._faces[d])}" for d in sorted(self._faces))
        return f"SimplicialComplex(dim={self.dim}, faces=[{counts}])"
