"""posetlab: exact (co)homology of subgraph posets of finite multigraphs.

The package builds the six natural posets of proper nonempty edge
subgraphs of a finite connected multigraph (all subgraphs, forests,
cycle-containing subgraphs, cores, and the connected variants of the
last two), takes their order complexes, and computes reduced simplicial
homology and cohomology over the integers with exact Smith normal form.
On top of that sit the structural verifications: sphericity of the
cycle-containing complexes, Alexander duality between forests and
non-forests, closure retractions onto cores, valence-two smoothing
comparisons, forest-indexed generating cycles for top homology, fiber
posets of the core construction, boolean-lattice apartments, and
level-function certificates of contractibility.  Everything is driven
by an exhaustive census of multigraph isomorphism types of a given
first Betti number.
"""

from .enumeration import (
    apartment,
    canonical_key,
    enumerate_graphs,
    fiber_poset,
    fiber_retraction,
    graphs_with_separating_edge,
    parse_key,
    verify_apartment,
    verify_fiber,
)
from .graph_posets import (
    KINDS,
    CheckReport,
    VerificationError,
    build_poset,
    forest_generator_cycles,
    graph_label,
    poset_elements,
    verify_core_retraction,
    verify_duality,
    verify_forest_generators,
    verify_sphericity,
    verify_subset_sphere,
    verify_valence_two,
)
from .homology import (
    HomologyResult,
    InvariantError,
    alexander_duality_check,
    certify_contractible,
    pi1_field,
    poset_homology,
    reduced_homology,
)
from .morse import (
    LevelCertificate,
    search_certificate,
    verify_certificate,
)
from .multigraph import (
    GraphError,
    Multigraph,
    dumbbell,
    rose,
    theta_graph,
)
from .poset import FinitePoset, PosetMap, closure_retraction, order_complex, subset_lattice
from .simplicial import SimplicialComplex

__version__ = "0.1.0"

__all__ = [
    "apartment",
    "canonical_key",
    "enumerate_graphs",
    "fiber_poset",
    "fiber_retraction",
    "graphs_with_separating_edge",
    "parse_key",
    "verify_apartment",
    "verify_fiber",
    "KINDS",
    "CheckReport",
    "VerificationError",
    "build_poset",
    "forest_generator_cycles",
    "graph_label",
    "poset_elements",
    "verify_core_retraction",
    "verify_duality",
    "verify_forest_generators",
    "verify_sphericity",
    "verify_subset_sphere",
    "verify_valence_two",
    "HomologyResult",
    "InvariantError",
    "alexander_duality_check",
    "certify_contractible",
    "pi1_field",
    "poset_homology",
    "reduced_homology",
    "LevelCertificate",
    "search_certificate",
    "verify_certificate",
    "GraphError",
    "Multigraph",
    "dumbbell",
    "rose",
    "theta_graph",
    "FinitePoset",
    "PosetMap",
    "closure_retraction",
    "order_complex",
    "subset_lattice",
    "SimplicialComplex",
    "__version__",
]
