"""Simplicial complexes: the exact message of each refused face family."""

import pytest

from posetlab.simplicial import ComplexError, SimplicialComplex


def refusal(vertices, faces):
    with pytest.raises(ComplexError) as info:
        SimplicialComplex(vertices, faces)
    return str(info.value)


class TestRefusals:
    def test_missing_facet(self):
        assert refusal(range(3), [(0, 1, 2)]) == "face (0, 1, 2) missing facet (1, 2)"

    def test_repeated_vertex(self):
        assert refusal(range(1), [(0, 0)]) == "repeated vertex in face (0, 0)"

    def test_undeclared_vertex(self):
        assert refusal(range(2), [(0,), (1,), (0, 5)]) == "face (0, 5) uses an undeclared vertex"

    def test_vertex_without_a_zero_face(self):
        assert refusal(range(3), [(0,), (1,)]) == "vertex 2 has no 0-face"

    def test_top_dimension_fault_is_named_first(self):
        edges = [(0,), (1,), (2,), (0, 1), (0, 3)]
        assert refusal(range(4), edges) == "face (0, 3) missing facet (3,)"
        assert (
            refusal(range(4), edges + [(0, 1, 2)]) == "face (0, 1, 2) missing facet (1, 2)"
        )
