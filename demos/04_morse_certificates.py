"""
Level-function certificates of contractibility
==============================================

A level function partitions a poset so that level zero is contractible
and every later element's strictly-descending part is contractible too;
such a partition certifies the whole order complex contractible.  The
search below re-derives certificates for each rank-3 core poset whose
graph has a separating edge — and proves that the theta graph's core
poset admits none.
"""

from posetlab import (
    build_poset,
    graphs_with_separating_edge,
    parse_key,
    poset_homology,
    search_certificate,
    theta_graph,
    verify_certificate,
)

# Every rank-3 graph with a separating edge has a contractible core
# complex, and a short level certificate witnesses it.
print("certificates for separating-edge rank-3 core posets:")
for key in graphs_with_separating_edge(3):
    p = build_poset(parse_key(key), "c")
    res = search_certificate(p)
    chk = verify_certificate(p, res.certificate)
    sizes = [len(level) for level in res.certificate.levels]
    print(f"  {key:<30} levels {sizes!s:<12} verified={chk.ok}")

# The theta graph's core poset is three incomparable bigons: an
# antichain whose order complex is three points.  No certificate can
# exist at any depth — level zero would need the whole antichain
# contractible, and any later element would need a nonempty descending
# complex.  The search confirms absence and the homology shows why.
p = build_poset(theta_graph(), "c")
res = search_certificate(p)
h = poset_homology(p)
print("\ntheta core poset:", p.n, "elements, homology", h)
print("certificate found:", res.found, "| search exhausted:", res.exhausted)
assert not res.found and not h.is_trivial()
