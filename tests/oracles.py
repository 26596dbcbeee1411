"""Term-by-term helpers kept as oracles for the tests: the bracket factors
of one term of Theorem 1's bracket sum, and the boundary walk of the
polygon model that a bracket's Laurent expansion follows.

drbracket computes neither this way: a bracket sum is evaluated from the
per-n table of brackets._product_table, and a bracket's Laurent rows are
written from the positions of its symbols on the walk
(laurent._bracket_rows).
"""

from typing import List, Sequence, Tuple

from drbracket.brackets import Symbol, alpha, beta


def term_factors(n: int, I: Sequence[int]) -> List[Tuple[Symbol, Symbol]]:
    """Bracket factors of the bracket-sum term of the subset I of [n]:
    prod_{j in J, i != j} [a_i, a_j] * prod_{i in I, k in [n-2]} [b_k, a_i],
    where J is the complement of I."""
    J = sorted(set(range(1, n + 1)) - set(I))
    factors = []
    for j in J:
        for i in range(1, n + 1):
            if i != j:
                factors.append((alpha(i), alpha(j)))
    for i in I:
        for k in range(1, n - 1):
            factors.append((beta(k), alpha(i)))
    return factors


def boundary_path(model, x: Symbol, y: Symbol) -> List[Symbol]:
    """Boundary walk of a laurent.PolygonModel from x to y on the side of
    the polygon avoiding gamma."""
    if x == model.gamma or y == model.gamma:
        raise ValueError("path endpoints must differ from gamma")
    if x == y:
        raise ValueError("path endpoints must be distinct")
    bnd = model.boundary
    ix, iy = bnd.index(x), bnd.index(y)
    if ix < iy:
        return bnd[ix:iy + 1]
    return list(reversed(bnd[iy:ix + 1]))
