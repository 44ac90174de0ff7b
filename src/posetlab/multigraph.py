"""Finite multigraphs with loops and parallel edges.

Vertices and edges carry small opaque integer ids.  An edge is an unordered
pair of vertices, possibly a loop.  All mutating operations return a new
graph; edge ids survive deletion and collapse, which is what lets a subgraph
of a quotient graph G/F be lifted unambiguously back into E(G) - F.

Conventions used throughout:

* the valence of a vertex counts loops twice;
* the rank of a graph is |E| - |V| + (number of connected components),
  the rank of its first homology;
* a forest is an edge set of rank zero.

Edge subsets themselves (forests, cores, the six posets) are int masks in
:mod:`posetlab.graph_posets`.
"""

from __future__ import annotations


class GraphError(ValueError):
    """A structurally invalid graph, or an invalid operation on one."""


def _find(parent, v):
    root = v
    while parent[root] != root:
        root = parent[root]
    while parent[v] != root:
        parent[v], v = root, parent[v]
    return root


def _union(parent, u, v):
    ru, rv = _find(parent, u), _find(parent, v)
    if ru == rv:
        return False
    # smaller id wins, so class representatives are stable under reordering
    if rv < ru:
        ru, rv = rv, ru
    parent[rv] = ru
    return True


def _components_of(vertices, pairs):
    """Partition `vertices` by the edges in `pairs`; returns root -> set."""
    parent = {v: v for v in vertices}
    for u, v in pairs:
        _union(parent, u, v)
    classes = {}
    for v in vertices:
        classes.setdefault(_find(parent, v), set()).add(v)
    return classes


class Multigraph:
    """An immutable multigraph.  Edges are (id, u, v) with u <= v."""

    __slots__ = ("vertices", "edges", "_by_id", "_incident", "_hash")

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(set(int(v) for v in vertices)))
        vset = set(self.vertices)
        norm = []
        seen = set()
        for eid, u, v in edges:
            eid, u, v = int(eid), int(u), int(v)
            if eid in seen:
                raise GraphError(f"duplicate edge id {eid}")
            if u not in vset or v not in vset:
                raise GraphError(f"edge {eid} has undeclared endpoint")
            seen.add(eid)
            norm.append((eid, min(u, v), max(u, v)))
        norm.sort()
        self.edges = tuple(norm)
        self._by_id = {e: (u, v) for e, u, v in self.edges}
        inc = {v: [] for v in self.vertices}
        for e, u, v in self.edges:
            inc[u].append(e)
            if v != u:
                inc[v].append(e)
        self._incident = {v: tuple(es) for v, es in inc.items()}
        self._hash = hash((self.vertices, self.edges))

    # -- basic queries ---------------------------------------------------

    @property
    def edge_ids(self):
        return tuple(e for e, _, _ in self.edges)

    def endpoints(self, eid):
        try:
            return self._by_id[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid}") from None

    def num_vertices(self):
        return len(self.vertices)

    def num_edges(self):
        return len(self.edges)

    def valence(self, v):
        if v not in self._incident:
            raise GraphError(f"unknown vertex {v}")
        total = 0
        for e in self._incident[v]:
            a, b = self._by_id[e]
            total += 2 if a == b else 1
        return total

    def components(self):
        classes = _components_of(self.vertices, [(u, v) for _, u, v in self.edges])
        return sorted(classes.values(), key=min)

    def is_connected(self):
        return len(self.components()) == 1

    def rank(self):
        """First Betti number: |E| - |V| + number of components."""
        return len(self.edges) - len(self.vertices) + len(self.components())

    # -- edge operations -------------------------------------------------

    def separating_edges(self):
        """The edges whose deletion increases the number of components,
        ascending: the bridges, found by one depth-first search.

        A tree edge separates exactly when no edge from the subtree below
        it reaches its upper end or above.  The search never steps back
        along the edge id it came in on, so of two parallel edges each
        closes a cycle with the other, and a loop closes one at its own
        vertex: neither separates.  A lone or pendant edge separates,
        matching the convention that a bridge in a tree separates it.
        """
        order, low, bridges = {}, {}, []
        for root in self.vertices:
            if root in order:
                continue
            order[root] = low[root] = len(order)
            stack = [(root, None, iter(self._incident[root]))]
            while stack:
                v, via, edges = stack[-1]
                for e in edges:
                    if e == via:
                        continue
                    a, b = self._by_id[e]
                    w = b if a == v else a
                    if w in order:
                        low[v] = min(low[v], order[w])
                    else:
                        order[w] = low[w] = len(order)
                        stack.append((w, e, iter(self._incident[w])))
                        break
                else:
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        low[u] = min(low[u], low[v])
                        if low[v] > order[u]:
                            bridges.append(via)
        return tuple(sorted(bridges))

    def collapse_edge(self, eid):
        """Identify the endpoints of a non-loop edge and remove it.

        The merged vertex keeps the smaller of the two ids; every other
        edge id is preserved, so subgraphs of the quotient lift back.
        """
        u, v = self.endpoints(eid)
        if u == v:
            raise GraphError(f"cannot collapse loop {eid}")
        keep, drop = min(u, v), max(u, v)
        edges = []
        for e, a, b in self.edges:
            if e == eid:
                continue
            if a == drop:
                a = keep
            if b == drop:
                b = keep
            edges.append((e, a, b))
        vertices = [w for w in self.vertices if w != drop]
        return Multigraph(vertices, edges)

    def forest_vertex_map(self, edge_set):
        """vertex -> representative after collapsing the forest `edge_set`.

        Representatives are the minimum vertex id of each class, matching
        what iterated collapse_edge produces.
        """
        parent = {v: v for v in self.vertices}
        for e in sorted(edge_set):
            if not _union(parent, *self.endpoints(e)):
                raise GraphError("edge set contains a cycle")
        return {v: _find(parent, v) for v in self.vertices}

    def collapse_forest(self, edge_set, vmap=None):
        """Collapse every edge of a forest at once.

        The result does not depend on the order the edges are collapsed in;
        the test suite checks this against iterated collapse_edge.  `vmap`
        is the forest's :meth:`forest_vertex_map`, for a caller that
        already has it.
        """
        edge_set = frozenset(edge_set)
        if vmap is None:
            vmap = self.forest_vertex_map(edge_set)
        edges = [(e, vmap[u], vmap[v]) for e, u, v in self.edges if e not in edge_set]
        vertices = sorted(set(vmap.values()))
        return Multigraph(vertices, edges)

    def subdivide_edge(self, eid):
        """Replace one edge by a two-edge path through a fresh vertex.

        Returns ``(graph, new_vertex)``.  The new vertex has valence two, so
        ``smooth_valence_two(new_vertex)`` undoes the subdivision up to edge
        relabelling.  Loops may be subdivided; the result is a bigon.
        """
        u, v = self.endpoints(eid)
        w = max(self.vertices) + 1
        base = max(self.edge_ids) + 1
        edges = [e for e in self.edges if e[0] != eid]
        edges.append((base, u, w))
        edges.append((base + 1, w, v))
        return Multigraph(list(self.vertices) + [w], edges), w

    def smooth_valence_two(self, v):
        """Replace the two-edge segment through a valence-two vertex.

        The two distinct edges e1, e2 at v are removed together with v, and
        a single new edge (with a fresh id) joins their far endpoints.
        """
        if v not in self._incident:
            raise GraphError(f"unknown vertex {v}")
        if self.valence(v) != 2:
            raise GraphError(f"vertex {v} has valence {self.valence(v)}, not 2")
        incident = self._incident[v]
        if len(incident) != 2:
            # a single loop at v: the two incidences are the same edge
            raise GraphError(f"vertex {v} carries a loop; nothing to smooth")
        e1, e2 = incident
        ends = []
        for e in (e1, e2):
            a, b = self.endpoints(e)
            ends.append(b if a == v else a)
        new_id = max(self.edge_ids) + 1
        edges = [e for e in self.edges if e[0] not in (e1, e2)]
        edges.append((new_id, ends[0], ends[1]))
        vertices = [w for w in self.vertices if w != v]
        return Multigraph(vertices, edges), new_id

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Multigraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


# -- small constructors used all over the test and demo code ---------------


def rose(num_loops):
    """One vertex with `num_loops` loops."""
    return Multigraph([0], [(i, 0, 0) for i in range(num_loops)])


def theta_graph(num_edges=3):
    """Two vertices joined by parallel edges (the classical theta for 3)."""
    return Multigraph([0, 1], [(i, 0, 1) for i in range(num_edges)])


def dumbbell():
    """Two loops joined by a separating edge."""
    return Multigraph([0, 1], [(0, 0, 0), (1, 0, 1), (2, 1, 1)])
