"""An outside oracle: sympy's Berkowitz determinant of the reduced Laplacian.

The Laplacian is assembled here from the graph's edges and `edge_weight`,
each variable is mapped to a sympy symbol by its rendered name, and the
enumerator is rebuilt term by term from `terms()`, so no rendered text is
parsed by sympy.
"""

import pytest

from treefactor import (
    WeightScheme,
    cartesian_product,
    complete_graph,
    edge_weight,
    threshold_graph,
    tree_enumerator_det,
)

sympy = pytest.importorskip("sympy")


def _to_sympy(p, symbols):
    total = sympy.Integer(0)
    for mono, c in p.terms():
        term = sympy.Integer(c)
        for v, e in mono.exps:
            term *= symbols.setdefault(v, sympy.Symbol(v.render())) ** e
        total += term
    return total


def _berkowitz_enumerator(g, scheme, symbols):
    lap = [[sympy.Integer(0)] * g.n for _ in range(g.n)]
    for e in g.edges:
        w = e.multiplicity * _to_sympy(edge_weight(g, e, scheme), symbols)
        lap[e.u][e.u] += w
        lap[e.v][e.v] += w
        lap[e.u][e.v] -= w
        lap[e.v][e.u] -= w
    reduced = sympy.Matrix([row[:-1] for row in lap[:-1]])
    return sympy.expand(reduced.det(method="berkowitz"))


@pytest.mark.parametrize("g, scheme", [
    (complete_graph(5), WeightScheme.CAYLEY_PRUFER),
    (threshold_graph((4, 3, 2, 2, 1)), WeightScheme.THRESHOLD_IN_OUT),
    (cartesian_product([complete_graph(2), complete_graph(3)]), WeightScheme.DECOUPLED),
], ids=["K5", "T:4,3,2,2,1", "K2xK3"])
def test_enumerator_matches_berkowitz_determinant(g, scheme):
    symbols = {}
    ours = tree_enumerator_det(g, scheme)
    theirs = _berkowitz_enumerator(g, scheme, symbols)
    assert sympy.expand(_to_sympy(ours, symbols) - theirs) == 0
    assert len(sympy.Add.make_args(theirs)) == ours.n_terms
