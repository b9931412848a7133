"""Keygen's vectorized permutation tags against the union-find reference.

``keygen._build_permutation_tags`` finds the copy graph's components with
min-label propagation and pointer jumping, then lists each equality cycle
in ascending cell order with one stable sort.  The reference below is the
per-cell union-find it replaced; on any copy graph both must give the
same ``id`` and ``sigma`` tags, or every proving key would change.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.field import GOLDILOCKS
from repro.halo2 import Assignment, ConstraintSystem
from repro.halo2.column import Column
from repro.halo2.keygen import _build_permutation_tags


def reference_permutation_tags(
    assignment: Assignment, columns: List[Column]
) -> Tuple[List[List[int]], List[List[int]]]:
    """Union-find the copy constraints into id/sigma tag vectors.

    Tags are small distinct integers (slot * n + row + 1); sigma maps each
    cell to the next cell of its equality cycle, so the multiset
    {(value, id)} equals {(value, sigma)} exactly when values are constant
    along every cycle.
    """
    n = assignment.n
    slot = {col: j for j, col in enumerate(columns)}
    size = len(columns) * n

    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    def cell_index(col: Column, row: int) -> int:
        return slot[col] * n + row

    for col_a, row_a, col_b, row_b in assignment.copy_cells():
        union(cell_index(col_a, row_a), cell_index(col_b, row_b))

    groups: Dict[int, List[int]] = {}
    for idx in range(size):
        groups.setdefault(find(idx), []).append(idx)

    ids = [[j * n + i + 1 for i in range(n)] for j in range(len(columns))]
    sigmas = [list(col) for col in ids]
    for members in groups.values():
        if len(members) < 2:
            continue
        # sigma rotates the cycle: each cell points at the next member.
        for pos, idx in enumerate(members):
            nxt = members[(pos + 1) % len(members)]
            sigmas[idx // n][idx % n] = nxt + 1
    return ids, sigmas


def _grid(k: int, advice: int, fixed: int, instance: int):
    """An assignment whose every column carries copy constraints."""
    cs = ConstraintSystem(GOLDILOCKS)
    columns = ([cs.advice_column() for _ in range(advice)]
               + [cs.fixed_column() for _ in range(fixed)]
               + [cs.instance_column() for _ in range(instance)])
    for col in columns:
        cs.enable_equality(col)
    return cs, Assignment(cs, k), columns


@st.composite
def copy_graphs(draw):
    """A grid plus copy edges shaped as stars, chains, cycles and random
    pairs, with duplicate and self edges; untouched cells stay isolated."""
    k = draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 3)), draw(st.integers(0, 2)),
             draw(st.integers(0, 2)))
    cs, asg, columns = _grid(k, *shape)
    cells = st.tuples(st.sampled_from(columns), st.integers(0, asg.n - 1))
    edges = []
    for kind, group in draw(st.lists(st.tuples(
            st.sampled_from(["star", "chain", "cycle", "pairs"]),
            st.lists(cells, min_size=1, max_size=8)), max_size=6)):
        if kind == "star":
            edges += [(group[0], cell) for cell in group]  # incl. a self edge
        elif kind == "chain":
            edges += list(zip(group, group[1:]))
        elif kind == "cycle":
            edges += list(zip(group, group[1:] + group[:1]))
        else:
            edges += list(zip(group[::2], group[1::2]))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    for (col_a, row_a), (col_b, row_b) in edges:
        asg.copy(col_a, row_a, col_b, row_b)
    return asg, cs.permuted_columns()


@given(copy_graphs())
@settings(max_examples=200, deadline=None)
def test_vectorized_tags_match_union_find(graph):
    asg, columns = graph
    ids, sigmas = _build_permutation_tags(asg, columns)
    want_ids, want_sigmas = reference_permutation_tags(asg, columns)
    assert ids.tolist() == want_ids
    assert sigmas.tolist() == want_sigmas


def test_no_copies_is_the_identity():
    _, asg, columns = _grid(3, 2, 1, 1)
    ids, sigmas = _build_permutation_tags(asg, columns)
    assert ids.tolist() == sigmas.tolist() == reference_permutation_tags(
        asg, columns)[0]


def test_long_chain_collapses_to_one_cycle():
    # a path written backwards is the worst case for label propagation
    _, asg, columns = _grid(6, 1, 0, 0)
    (col,) = columns
    for row in range(asg.n - 1, 0, -1):
        asg.copy(col, row, col, row - 1)
    ids, sigmas = _build_permutation_tags(asg, columns)
    assert sigmas.tolist() == reference_permutation_tags(asg, columns)[1]
    assert sigmas[0, -1] == ids[0, 0]  # the last cell closes the cycle
