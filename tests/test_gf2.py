from __future__ import annotations

import random

import pytest

from a1bordism.gf2 import BitMatrix, ColumnSolver, _transpose, combine, free_coords, span_rref
from oracles import (brute_kernel, brute_rowspace, brute_solutions, column_scan_kernel_basis,
                     column_scan_rref, column_scan_solve, identity)


def test_rref_empty_matrix():
    m = BitMatrix([], 0)
    red, pivots = m.rref()
    assert red.rows == () and pivots == ()


def test_rref_identity_already_reduced():
    m = identity(3)
    red, pivots = m.rref()
    assert red == m
    assert pivots == (0, 1, 2)


def test_rref_rank_two_example_vs_bruteforce():
    # rows 110, 011, 101 (bit j = column j)
    rows = [0b011, 0b110, 0b101]
    m = BitMatrix(rows, 3)
    red, pivots = m.rref()
    assert pivots == (0, 1)
    assert m.rank() == 2
    # row space preserved: brute-force enumeration of all 8 combinations
    assert brute_rowspace(rows) == brute_rowspace([r for r in red.rows if r])


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        m = BitMatrix([rng.getrandbits(c) for _ in range(r)], c)
        red, _ = m.rref()
        assert red.rref()[0] == red


def test_kernel_identity_empty():
    assert identity(4).kernel_basis() == ()


def test_kernel_zero_matrix_full():
    ker = BitMatrix([0, 0], 3).kernel_basis()
    assert len(ker) == 3


def test_kernel_single_row_vs_bruteforce():
    m = BitMatrix([0b011], 3)  # row (1 1 0)
    ker = m.kernel_basis()
    assert len(ker) == 2
    for v in ker:
        assert m.matvec(v) == 0
    spanned = set()
    for mask in range(4):
        acc = 0
        for i, v in enumerate(ker):
            if (mask >> i) & 1:
                acc ^= v
        spanned.add(acc)
    assert spanned == brute_kernel([0b011], 3)


def test_rank_nullity_random_bruteforce():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(0, 6)
        c = rng.randint(0, 8)
        m = BitMatrix([rng.getrandbits(c) for _ in range(r)], c)
        ker = m.kernel_basis()
        assert m.rank() + len(ker) == c
        assert len(brute_kernel(m.rows, c)) == 1 << len(ker)
        for v in ker:
            assert m.matvec(v) == 0


def test_matmul_associative_with_vectors():
    rng = random.Random(3)
    for _ in range(50):
        a = BitMatrix([rng.getrandbits(3) for _ in range(4)], 3)
        b = BitMatrix([rng.getrandbits(5) for _ in range(3)], 5)
        v = rng.getrandbits(5)
        assert (a @ b).matvec(v) == a.matvec(b.matvec(v))


def test_column_solver_matches_solve():
    rng = random.Random(5)
    for _ in range(100):
        c, r = rng.randint(1, 7), rng.randint(1, 7)
        cols = [rng.getrandbits(r) for _ in range(c)]
        m = BitMatrix.from_columns(cols, r)
        solver = ColumnSolver(cols)
        b = rng.getrandbits(r)
        got = solver.solve(b)
        ref = column_scan_solve(m.rows, c, b)
        assert (got is None) == (ref is None) == (not brute_solutions(m.rows, b, c))
        if got is not None:
            assert m.matvec(got) == b


def test_span_helpers():
    vecs = [0b011, 0b110]
    assert 0b101 in ColumnSolver(vecs)
    assert 0b001 not in ColumnSolver(vecs)
    assert free_coords(span_rref(vecs, 3)[1], 3) == (2,)


def test_immutability_and_bounds():
    m = identity(2)
    with pytest.raises(AttributeError):
        m.rows = ()
    with pytest.raises(ValueError):
        BitMatrix([0b100], 2)  # bit outside [0, ncols)
    with pytest.raises(ValueError):
        BitMatrix([0b10], 1)
    with pytest.raises(ValueError):
        BitMatrix([0], -1)
    with pytest.raises(ValueError):
        BitMatrix.from_columns([], -1)


def test_columns_and_from_columns_match_per_bit_reference():
    rng = random.Random(17)
    shapes = [(0, 0), (0, 5), (5, 0)] + [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(100)]
    for r, c in shapes:
        m = BitMatrix([rng.getrandbits(c) for _ in range(r)], c)
        ref_cols = [sum(((row >> j) & 1) << i for i, row in enumerate(m.rows)) for j in range(c)]
        assert _transpose(m.rows, c) == ref_cols
        cols = [rng.getrandbits(r) for _ in range(c)]
        ref_rows = tuple(sum(((col >> i) & 1) << j for j, col in enumerate(cols)) for i in range(r))
        built = BitMatrix.from_columns(cols, r)
        assert (built.nrows, built.ncols, built.rows) == (r, c, ref_rows)


def test_from_columns_rejects_bits_beyond_nrows():
    with pytest.raises(ValueError):
        BitMatrix.from_columns([0b100], 2)


def test_bitmatrix_keeps_the_kernels_the_benchmark_counts():
    # perfbench's counting pass wraps exactly these entries of BitMatrix.__dict__
    for name in ("matvec", "matmul", "kernel_basis", "rref", "from_columns"):
        assert name in BitMatrix.__dict__, name
    assert isinstance(BitMatrix.__dict__["from_columns"], classmethod)


def test_unchecked_results_equal_checked_construction():
    # matmul and rref build their results without the row check; each
    # must equal the checked constructor applied to a per-bit reference
    rng = random.Random(29)
    shapes = [(0, 0), (0, 4), (4, 0)] + [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(80)]
    for r, c in shapes:
        k = rng.choice([0, rng.randint(1, 8)])
        a = BitMatrix([rng.getrandbits(c) for _ in range(r)], c)
        m = BitMatrix([rng.getrandbits(k) for _ in range(c)], k)
        m_cols = _transpose(m.rows, k)
        ref_prod = [sum((bin(row & m_cols[j]).count("1") & 1) << j for j in range(k))
                    for row in a.rows]
        assert a @ m == BitMatrix(ref_prod, k)
        assert (a @ m).nrows == r
        red, pivots = a.rref()
        assert red == BitMatrix(list(red.rows), c)
        assert brute_rowspace(red.rows) == brute_rowspace(a.rows)
        assert [(red.rows[i] & -red.rows[i]).bit_length() - 1 for i in range(len(pivots))] \
            == list(pivots)
        for made in (a @ m, red, BitMatrix.from_columns(m_cols, c)):
            assert type(made.rows) is tuple


def _random_matrix(rng: random.Random, r: int, c: int, density: float) -> BitMatrix:
    rows = []
    for _ in range(r):
        row = 0
        for j in range(c):
            if rng.random() < density:
                row |= 1 << j
        rows.append(row)
    return BitMatrix(rows, c)


def _reference_shapes(rng: random.Random):
    """(nrows, ncols, density) covering empty, tiny, wide, tall, dense and sparse."""
    shapes = [(0, 0, 0.5), (0, 7, 0.5), (7, 0, 0.5), (1, 1, 0.5), (1, 1, 1.0),
              (40, 200, 0.5), (40, 200, 0.02), (200, 40, 0.5), (200, 40, 0.02)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 12), rng.choice([0.05, 0.3, 0.5, 0.9]))
               for _ in range(300)]
    return shapes


def test_rref_equals_column_scan_reference():
    rng = random.Random(41)
    for r, c, density in _reference_shapes(rng):
        m = _random_matrix(rng, r, c, density)
        if r >= 3:  # duplicate and zero rows
            rows = list(m.rows)
            rows[rng.randrange(r)] = rows[rng.randrange(r)]
            rows[rng.randrange(r)] = 0
            m = BitMatrix(rows, c)
        ref_rows, ref_pivots = column_scan_rref(m.rows, c)
        red, pivots = m.rref()
        assert (red.rows, pivots) == (ref_rows, ref_pivots)
        assert red.nrows == r and red.ncols == c
        assert m.rank() == len(ref_pivots)
        assert m.kernel_basis() == column_scan_kernel_basis(m.rows, c)


def test_column_solver_kernel_equals_kernel_basis():
    rng = random.Random(43)
    for r, c, density in _reference_shapes(rng):
        m = _random_matrix(rng, r, c, density)
        assert ColumnSolver(_transpose(m.rows, c)).kernel == list(m.kernel_basis())


def test_combine_equals_per_vector_matvec():
    rng = random.Random(47)
    for r, c, density in _reference_shapes(rng):
        m = _random_matrix(rng, r, c, density)
        vectors = [0] + [1 << j for j in range(c)] + [rng.getrandbits(c) for _ in range(5)]
        assert combine(_transpose(m.rows, c), vectors) == [m.matvec(v) for v in vectors]
        # the rows of a product: row i of a picks rows of m
        k = rng.randint(0, 6)
        a = _random_matrix(rng, k, r, density)
        assert combine(m.rows, a.rows) == list((a @ m).rows)
    assert combine([], []) == [] and combine([0b1], [0]) == [0]
    with pytest.raises(IndexError):
        combine([0b01, 0b10], [0b100])


def test_column_solver_membership_matches_bruteforce_span():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(0, 7)
        base = [rng.getrandbits(n) for _ in range(rng.randint(0, 5))]
        solver = ColumnSolver(base)
        span = brute_rowspace(base)
        for v in range(1 << n):
            assert (v in solver) == (v in span)


def _vector_lists(rng: random.Random):
    """(vectors, ncols): the reference shapes' rows with zero and repeated
    vectors mixed in, plus the empty list and all-zero lists."""
    cases = [([], 0), ([], 5), ([0, 0], 0), ([0, 0, 0], 4), ([0b101] * 3, 3), ([1, 0, 1, 0], 1)]
    for r, c, density in _reference_shapes(rng):
        rows = list(_random_matrix(rng, r, c, density).rows)
        if rows:
            rows.insert(rng.randrange(len(rows) + 1), 0)
            rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
        cases.append((rows, c))
    return cases


def test_column_solver_complement_equals_free_coords_of_span_rref():
    # the table's keys are the span's lowest-bit pivots, the ones rref gives
    for vectors, n in _vector_lists(random.Random(59)):
        solver = ColumnSolver(vectors)
        _, pivots = span_rref(vectors, n)
        assert solver.complement(n) == free_coords(pivots, n)
        assert sorted(low.bit_length() - 1 for low in solver.table) == list(pivots)


def test_column_solver_masks_end_at_their_own_column():
    # the highest bit of a table or kernel mask is its column's index, and
    # the table keeps column order: what ExtChart.strands reads births from
    for vectors, n in _vector_lists(random.Random(61)):
        solver = ColumnSolver(vectors)
        owners = [m.bit_length() - 1 for _, m in solver.table.values()]
        dead = [m.bit_length() - 1 for m in solver.kernel]
        assert owners == sorted(owners) and dead == sorted(dead)
        assert sorted(owners + dead) == list(range(len(vectors)))
        for low, (v, m) in solver.table.items():
            assert v & -v == low and combine(vectors, [m]) == [v]
        assert combine(vectors, solver.kernel) == [0] * len(solver.kernel)
