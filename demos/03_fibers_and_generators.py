"""
Fiber posets of the core construction, and forest-indexed generators
====================================================================

Two finer structures sit on top of the subgraph posets.  The fiber
poset pairs a forest with a core subgraph of the quotient by that
forest; it retracts onto its empty-forest slice, which is the opposite
of the core poset.  And each maximal forest contributes an explicit
cycle to the top homology of the cycle-containing complex; together
these cycles generate it.
"""

from posetlab import (
    Multigraph,
    fiber_poset,
    forest_generator_cycles,
    parse_key,
    theta_graph,
    verify_fiber,
    verify_forest_generators,
)
from itertools import combinations

# The fiber poset of the theta graph has nine elements: three cores over
# the empty forest and two over each single-edge spanning tree.
theta = theta_graph()
p = fiber_poset(theta, connected_only=False)
print("fiber poset of theta:", p.n, "elements")
for forest, core in p.elements:
    print(f"  forest={sorted(forest)!s:<8} core={sorted(core)}")

# The structural facts are checked in one call: the empty slice is the
# opposite core poset, an increasing closure map retracts onto it, and
# homology agrees with the core poset.
rep = verify_fiber(theta, connected_only=False)
print("\nslice is opposite core:", rep.data["slice_matches_core_opposite"])
print("retraction direction:  ", rep.data["retraction_direction"])
print("homology matches core: ", rep.data["homology_matches_core"])

# Forest-indexed generators.  For the theta graph each spanning tree is
# a single edge, and its dual cycle is the difference of the two bigons
# built from the remaining edges.
k, cycles = forest_generator_cycles(theta)
print("\ntheta generator cycles (simplex: coefficient):")
for chain in cycles:
    pretty = {
        tuple(tuple(sorted(k.vertices[v])) for v in simplex): coeff
        for simplex, coeff in chain.items()
    }
    print("  ", pretty)

rec = verify_forest_generators(theta)
print(
    "theta: span rank", rec.data["span_rank"],
    "of expected", rec.data["expected_rank"],
    "from", rec.data["forests"], "forests",
)

# A richer example: the complete graph on four vertices has sixteen
# spanning trees (Cayley: 4^2) whose cycles span a rank-6 top homology.
k4 = Multigraph(range(4), [(i, u, v) for i, (u, v) in enumerate(combinations(range(4), 2))])
rec = verify_forest_generators(k4)
print(
    "\ncomplete graph on 4 vertices: span rank", rec.data["span_rank"],
    "from", rec.data["forests"], "forests  →", rec.status,
)
