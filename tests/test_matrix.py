from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlocal import (
    CarrierTooLargeError,
    DimensionError,
    MatrixRing,
    Ring,
    ShapeMismatchError,
    block_flatten,
    commutator,
    corner_embed,
    corner_extract,
    identity_matrix,
    matrix_index,
    matrix_ring,
    matrix_to_strings,
    matrix_unit,
    parse_ring_spec,
    pierce_component,
    polyquot,
    staircase,
    zero_matrix,
    zmod,
)
from adlocal.matrix import Matrix, row_table
from adlocal.sampling import rng_for


def rand_elem(ring, rng):
    return ring.element(rng.randrange(ring.cardinality))


def test_matrix_unit_literal(z2):
    assert matrix_unit(z2, 2, 1, 2).rows == ((0, 1), (0, 0))


def test_unit_products(units2):
    assert units2[(1, 2)] * units2[(2, 1)] == units2[(1, 1)]
    z = zero_matrix(zmod(2), 2)
    assert units2[(1, 2)] * units2[(1, 2)] == z


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_multiplication_table(n, z2):
    units = {
        (i, j): matrix_unit(z2, n, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    zero = zero_matrix(z2, n)
    for (i, j), u in units.items():
        for (k, l), v in units.items():
            expected = units[(i, l)] if j == k else zero
            assert u * v == expected


def test_unit_index_range(z2):
    with pytest.raises(IndexError):
        matrix_unit(z2, 2, 0, 1)
    with pytest.raises(IndexError):
        matrix_unit(z2, 2, 1, 3)


def test_pierce_literal(z2):
    x = Matrix(z2, ((1, 1), (1, 1)))
    assert pierce_component(x, 1, 2) == matrix_unit(z2, 2, 1, 2)
    assert pierce_component(matrix_unit(z2, 2, 1, 2), 2, 1) == zero_matrix(z2, 2)


def test_pierce_is_unit_sandwich(m3z2, z2):
    rng = rng_for(0, "pierce")
    for _ in range(25):
        x = rand_elem(m3z2, rng)
        for i in range(1, 4):
            for j in range(1, 4):
                sandwich = matrix_unit(z2, 3, i, i) * x * matrix_unit(z2, 3, j, j)
                assert pierce_component(x, i, j) == sandwich


@pytest.mark.parametrize("ring_maker", [lambda: matrix_ring(zmod(2), 3), lambda: matrix_ring(zmod(3), 2)])
def test_pierce_completeness(ring_maker):
    carrier = ring_maker()
    rng = rng_for(1, f"pierce-sum:{carrier.spec}")
    for _ in range(30):
        x = rand_elem(carrier, rng)
        total = zero_matrix(carrier.base, carrier.n)
        for i in range(1, carrier.n + 1):
            for j in range(1, carrier.n + 1):
                total = total + pierce_component(x, i, j)
        assert total == x


def test_staircase_shapes(z2, z3):
    assert staircase(z2, 2) == matrix_unit(z2, 2, 1, 2)
    assert staircase(z2, 3) == matrix_unit(z2, 3, 1, 2) + matrix_unit(z2, 3, 2, 3)
    expected4 = (
        matrix_unit(z3, 4, 1, 2) + matrix_unit(z3, 4, 2, 3) + matrix_unit(z3, 4, 3, 4)
    )
    assert staircase(z3, 4) == expected4
    with pytest.raises(DimensionError):
        staircase(z2, 1)


def test_commutator_examples(units2, z2):
    assert commutator(units2[(1, 1)], units2[(1, 2)]) == units2[(1, 2)]
    x = Matrix(z2, ((1, 0), (1, 1)))
    assert commutator(x, x) == zero_matrix(z2, 2)
    assert commutator(units2[(1, 2)], units2[(2, 1)]) == units2[(1, 1)] + units2[(2, 2)]


def test_commutator_additivity_exhaustive(m2z2):
    els = m2z2.elements()
    a = els[7]
    for x in els:
        for y in els:
            assert commutator(a, x + y) == commutator(a, x) + commutator(a, y)


def test_shape_mismatch(z2, z3):
    with pytest.raises(ShapeMismatchError):
        commutator(zero_matrix(z2, 2), zero_matrix(z2, 3))
    with pytest.raises(ShapeMismatchError):
        zero_matrix(z2, 2) * zero_matrix(z3, 2)


# The block view: 2x2 matrices over M_m(R) read as M_2m(R) through
# block_flatten, a ring isomorphism.


def test_block_view_unit_literal(z2):
    inner = matrix_ring(z2, 2)
    z = inner.zero
    b = Matrix(inner, ((z, matrix_unit(z2, 2, 1, 1)), (z, z)))
    assert block_flatten(b) == matrix_unit(z2, 4, 1, 3)


def test_block_view_unit_closed_form(z2):
    # the unit e_ij in block (bi, bj) flattens to the unit at
    # ((bi-1)m + i, (bj-1)m + j)
    m = 2
    inner = matrix_ring(z2, m)
    for bi, bj, i, j in product((1, 2), repeat=4):
        grid = [[inner.zero] * 2 for _ in range(2)]
        grid[bi - 1][bj - 1] = matrix_unit(z2, m, i, j)
        b = Matrix(inner, tuple(map(tuple, grid)))
        assert block_flatten(b) == matrix_unit(z2, 2 * m, (bi - 1) * m + i, (bj - 1) * m + j)


def test_block_flatten_is_a_bijection_onto_m4z2(z2):
    # all 65,536 elements of M2(M2(Z2)) onto the 65,536 of M4(Z2)
    block, m4 = matrix_ring(matrix_ring(z2, 2), 2), matrix_ring(z2, 4)
    assert {block_flatten(b) for b in block.elements()} == set(m4.elements())
    assert block_flatten(block.one) == m4.one and block_flatten(block.zero) == m4.zero


def _block_pairs(inner, rng, count):
    draw = lambda: Matrix(inner, tuple(tuple(rand_elem(inner, rng) for _ in "ab") for _ in "ab"))
    return [(draw(), draw()) for _ in range(count)]


def test_block_view_ring_isomorphism(z2):
    inner = matrix_ring(z2, 2)
    for b, c in _block_pairs(inner, rng_for(2, "block-iso"), 200):
        assert block_flatten(b * c) == block_flatten(b) * block_flatten(c)
        assert block_flatten(b + c) == block_flatten(b) + block_flatten(c)


def test_block_flatten_rejects_a_scalar_base(z2):
    with pytest.raises(ShapeMismatchError):
        block_flatten(zero_matrix(z2, 2))


def corner_idempotent(ring, m, n):
    """e = e_11 + ... + e_mm inside M_n(R), the idempotent of the corner."""
    return corner_embed(identity_matrix(ring, m), n)


def test_corner_compress_examples(z2):
    e = corner_idempotent(z2, 2, 4)
    x = matrix_unit(z2, 4, 1, 2) + matrix_unit(z2, 4, 3, 3)
    assert e * x * e == matrix_unit(z2, 4, 1, 2)
    inside = matrix_unit(z2, 4, 2, 1)
    assert e * inside * e == inside
    assert e * matrix_unit(z2, 4, 1, 3) * e == zero_matrix(z2, 4)


def test_corner_idempotent(z2):
    e = corner_idempotent(z2, 2, 4)
    assert e * e == e
    rng = rng_for(3, "corner")
    m4 = matrix_ring(z2, 4)
    for _ in range(50):
        x = rand_elem(m4, rng)
        # compression keeps the top-left 2x2 corner and zeroes the rest
        assert corner_embed(corner_extract(x, 2), 4) == e * x * e


def test_corner_is_subring(z2):
    # compression is multiplicative on corner-supported elements
    e = corner_idempotent(z2, 2, 4)
    m2 = matrix_ring(z2, 2)
    rng = rng_for(4, "corner-mult")
    for _ in range(50):
        x = corner_embed(rand_elem(m2, rng), 4)
        y = corner_embed(rand_elem(m2, rng), 4)
        assert e * (x * y) * e == (e * x * e) * (e * y * e)


def rand_square(base, n, rng):
    """A seeded n x n matrix over ``base``, built without its matrix ring."""
    card = base.cardinality
    row = lambda: tuple(base.element(rng.randrange(card)) for _ in range(n))
    return Matrix(base, tuple(row() for _ in range(n)))


def embed_entrywise(x, n):
    z = x.ring.zero
    return Matrix(
        x.ring,
        tuple(
            tuple(x.entry(i, j) if i <= x.n and j <= x.n else z for j in range(1, n + 1))
            for i in range(1, n + 1)
        ),
    )


def extract_entrywise(x, m):
    span = range(1, m + 1)
    return Matrix(x.ring, tuple(tuple(x.entry(i, j) for j in span) for i in span))


# (base, m, n): row tables on both sides (Z2, Z2[t]/(t^2)), on the corner
# only (M4(Z5) has 625 possible rows), and on neither (M2(Z17) has 289)
CORNER_CASES = [
    (zmod(2), 2, 5),
    (polyquot(2, 2), 3, 4),
    (zmod(5), 2, 4),
    (zmod(17), 2, 3),
]


def test_corner_embed_extract_roundtrip():
    rng = rng_for(5, "corner-rt")
    for base, m, n in CORNER_CASES:
        for _ in range(20):
            v, x = rand_square(base, m, rng), rand_square(base, n, rng)
            for got, want in (
                (corner_embed(v, n), embed_entrywise(v, n)),
                (corner_extract(x, m), extract_entrywise(x, m)),
                (corner_extract(corner_embed(v, n), m), v),
                (corner_embed(x, n), x),
                (corner_extract(x, n), x),
            ):
                assert got == want and got.rows == want.rows, (base.spec, want)
                assert hash(got) == hash(want)


def test_corner_context_validation(z2):
    # a corner larger than its ambient matrix has no idempotent
    with pytest.raises(ShapeMismatchError):
        corner_idempotent(z2, 3, 2)
    for base, m, n in CORNER_CASES:
        x = zero_matrix(base, n)
        with pytest.raises(ShapeMismatchError):
            corner_embed(x, m)
        with pytest.raises(ShapeMismatchError):
            corner_extract(zero_matrix(base, m), n)


def test_canonical_matrix_order(m2z2, units2):
    assert matrix_index(units2[(2, 2)]) == 1
    assert matrix_index(units2[(2, 1)]) == 2
    assert matrix_index(units2[(1, 2)]) == 4
    assert matrix_index(units2[(1, 1)]) == 8
    els = m2z2.elements()
    assert [matrix_index(x) for x in els] == list(range(16))


@given(st.integers(0, 4 ** 4 - 1))
@settings(max_examples=50, deadline=None)
def test_matrix_ring_index_roundtrip(i):
    carrier = matrix_ring(zmod(4), 2)
    assert carrier.index(carrier.element(i)) == i


def test_matrix_literal_roundtrip(z2, poly23):
    # distinct elements write distinct literals, so a literal names one element
    x = matrix_unit(z2, 2, 1, 2)
    assert matrix_to_strings(x) == [["0", "1"], ["0", "0"]]
    y = Matrix(poly23, (((1, 1, 0), poly23.zero), (poly23.one, (0, 0, 1))))
    assert matrix_to_strings(y) == [["t+1", "0"], ["1", "t^2"]]
    for carrier in (matrix_ring(z2, 2), matrix_ring(poly23, 2)):
        literals = {tuple(map(tuple, matrix_to_strings(v))) for v in carrier.elements()}
        assert len(literals) == carrier.cardinality


def test_nested_literal_roundtrip(z2):
    inner = matrix_ring(z2, 2)
    block = matrix_ring(inner, 2)
    assert block.el_str(block.element(777)) == (
        "[[[[0,0],[0,0]],[[0,0],[1,1]]],[[[0,0],[0,0]],[[1,0],[0,1]]]]"
    )
    nested = (
        matrix_ring(inner, 1),
        matrix_ring(matrix_ring(zmod(8), 1), 2),
        matrix_ring(matrix_ring(polyquot(2, 2), 1), 2),
    )
    for carrier in nested:
        literals = {carrier.el_str(v) for v in carrier.elements()}
        assert len(literals) == carrier.cardinality


# Differential test of the row-table arithmetic against entrywise base-ring
# arithmetic on the decoded rows.


def _ref_add(a, b):
    add = a.ring.add
    return tuple(tuple(map(add, r, s)) for r, s in zip(a.rows, b.rows))


def _ref_neg(a):
    return tuple(tuple(map(a.ring.neg, r)) for r in a.rows)


def _ref_sub(a, b):
    sub = a.ring.sub
    return tuple(tuple(map(sub, r, s)) for r, s in zip(a.rows, b.rows))


def _ref_mul(a, b):
    base = a.ring
    cols = tuple(zip(*b.rows))
    out = []
    for row in a.rows:
        line = []
        for col in cols:
            acc = base.zero
            for x, y in zip(row, col):
                acc = base.add(acc, base.mul(x, y))
            line.append(acc)
        out.append(tuple(line))
    return tuple(out)


def _ref_rows(base, n, i):
    card = base.cardinality
    flat = []
    for _ in range(n * n):
        i, d = divmod(i, card)
        flat.append(base.element(d))
    flat.reverse()
    return tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n))


def _ref_index(x):
    base = x.ring
    acc = 0
    for row in x.rows:
        for v in row:
            acc = acc * base.cardinality + base.index(v)
    return acc


def _assert_same_key(got, ring, rows):
    built = Matrix(ring, rows)
    assert got.rows == rows
    assert got == built and built == got
    assert hash(got) == hash(built)
    assert {built: 1}[got] == 1 and {got: 1}[built] == 1


def _assert_ops_match(a, b):
    ring = a.ring
    _assert_same_key(a + b, ring, _ref_add(a, b))
    _assert_same_key(a - b, ring, _ref_sub(a, b))
    _assert_same_key(-a, ring, _ref_neg(a))
    _assert_same_key(a * b, ring, _ref_mul(a, b))


SMALL_CARRIERS = {
    "M2(Z2)": lambda: matrix_ring(zmod(2), 2),
    "M2(Z3)": lambda: matrix_ring(zmod(3), 2),
    "M2(Z4)": lambda: matrix_ring(zmod(4), 2),
    "M2(Z2[t]/(t^2))": lambda: matrix_ring(polyquot(2, 2), 2),
}

SAMPLED_CARRIERS = {
    "M3(Z2)": lambda: matrix_ring(zmod(2), 3),
    "M4(Z2)": lambda: matrix_ring(zmod(2), 4),
    "M2(M2(Z2))": lambda: matrix_ring(matrix_ring(zmod(2), 2), 2),
}


@pytest.mark.parametrize("label", sorted(SMALL_CARRIERS))
def test_row_table_arithmetic_all_pairs(label):
    carrier = SMALL_CARRIERS[label]()
    els = carrier.elements()
    base, n = carrier.base, carrier.n
    assert [x.rows for x in els] == [_ref_rows(base, n, i) for i in range(len(els))]
    for i, a in enumerate(els):
        assert matrix_index(a) == _ref_index(a) == i
        assert carrier.element(i) == a
        for b in els:
            _assert_ops_match(a, b)


@pytest.mark.parametrize("label", sorted(SAMPLED_CARRIERS))
def test_row_table_arithmetic_sampled_pairs(label):
    # a carrier not listed yet decodes each index; once listed, element
    # hands out the listed objects, equal to the decoded ones
    interned = SAMPLED_CARRIERS[label]()
    base, n = interned.base, interned.n
    carrier = MatrixRing(base, n)
    card = carrier.cardinality
    rng = rng_for(0, f"row-table:{label}")
    decoded = []
    for _ in range(1000):
        i, j = rng.randrange(card), rng.randrange(card)
        a, b = carrier.element(i), carrier.element(j)
        assert a.rows == _ref_rows(base, n, i)
        assert matrix_index(a) == _ref_index(a) == i
        _assert_ops_match(a, b)
        decoded.append((i, a))
    els = carrier.elements()
    for i, a in decoded:
        assert carrier.element(i) is els[i] and els[i] == a
    with pytest.raises(IndexError):
        carrier.element(card)


def test_contains_takes_a_matrix_on_the_row_table_without_its_entries(monkeypatch):
    carrier = MatrixRing(zmod(2), 3)
    x = carrier.element(300)

    def refuse(v):
        raise AssertionError("entry scanned")

    monkeypatch.setattr(carrier.base, "contains", refuse)
    assert carrier.contains(x)
    # off the row table, the entries are still scanned
    above = MatrixRing(zmod(7), 3)
    monkeypatch.setattr(above.base, "contains", refuse)
    with pytest.raises(AssertionError, match="entry scanned"):
        above.contains(above.element(300))


def test_entrywise_arithmetic_above_row_table_cap():
    # M3(Z7) has 7^3 possible rows, beyond the row tables
    z7 = zmod(7)
    rng = rng_for(0, "entrywise:M3(Z7)")
    draw = lambda: Matrix(z7, tuple(tuple(rng.randrange(7) for _ in range(3)) for _ in range(3)))
    for _ in range(300):
        a, b = draw(), draw()
        _assert_ops_match(a, b)
        assert matrix_index(a) == _ref_index(a)
    # M1(Z257) has 257 possible rows; it enumerates through element()
    carrier = matrix_ring(zmod(257), 1)
    els = carrier.elements()
    assert [x.rows for x in els] == [_ref_rows(carrier.base, 1, i) for i in range(257)]
    assert [matrix_index(x) for x in els] == list(range(257))


@pytest.mark.parametrize("modulus", [2, 7])
def test_matrix_refuses_rows_that_are_not_canonical(modulus, monkeypatch):
    # M3(Z2) codes its rows on a row table and M3(Z7) has none; both
    # refuse an entry outside 0..m-1 and a row of the wrong length
    base, zero = zmod(modulus), (0, 0, 0)
    assert (row_table(base, 3) is None) is (modulus == 7)
    for rows in (((1, 2, modulus + 2), zero, zero), ((1, 2), zero, zero)):
        with pytest.raises(ValueError, match="are not canonical rows over"):
            Matrix(base, rows)
    a = Matrix(base, ((1, 1, 0), zero, zero))
    assert a.rows == ((1, 1, 0), zero, zero)
    carrier = MatrixRing(base, 3)

    def refuse(v):
        raise AssertionError("entry checked")

    # values the library computes are not checked again
    monkeypatch.setattr(base, "contains", refuse)
    for value in (a + a, a - a, a * a, -a, corner_extract(a, 2), corner_embed(a, 4)):
        assert value.ring is base
    assert carrier.element(1).rows == (zero, zero, (0, 0, 1))


# Differential test of the commutator kernel against the operators and
# against entrywise arithmetic: the fused row-code pass on carriers with a
# row table (M2(M2(Z2)) has a non-commutative base), the fallback above it.


def _ref_commutator(a, x):
    ring = a.ring
    return _ref_sub(Matrix(ring, _ref_mul(a, x)), Matrix(ring, _ref_mul(x, a)))


def _assert_commutator_matches(carrier, a, x):
    got = commutator(a, x)
    assert got == a * x - x * a
    _assert_same_key(got, a.ring, _ref_commutator(a, x))
    assert carrier.commutator(a, x) == got
    assert Ring.commutator(carrier, a, x) == got


@pytest.mark.parametrize("label", ["M2(Z2)", "M2(Z3)"])
def test_commutator_kernel_all_pairs(label):
    carrier = SMALL_CARRIERS[label]()
    assert carrier.row_codes is not None
    els = carrier.elements()
    for a in els:
        for x in els:
            _assert_commutator_matches(carrier, a, x)


COMMUTATOR_SAMPLED = {
    "M3(Z2)": lambda: matrix_ring(zmod(2), 3),
    "M2(Z4)": lambda: matrix_ring(zmod(4), 2),
    "M2(Z2[t]/(t^3))": lambda: matrix_ring(polyquot(2, 3), 2),
    "M4(Z2)": lambda: matrix_ring(zmod(2), 4),
    "M2(M2(Z2))": lambda: parse_ring_spec("mat:mat:zmod:2:2:2"),
}


@pytest.mark.parametrize("label", sorted(COMMUTATOR_SAMPLED))
def test_commutator_kernel_sampled_pairs(label):
    carrier = COMMUTATOR_SAMPLED[label]()
    assert carrier.row_codes is not None
    rng = rng_for(0, f"commutator:{label}")
    for _ in range(1000):
        _assert_commutator_matches(carrier, rand_elem(carrier, rng), rand_elem(carrier, rng))


def test_commutator_falls_back_above_row_table_cap():
    # M3(Z7) has 7^3 possible rows, beyond the row tables
    z7 = zmod(7)
    rng = rng_for(0, "commutator:M3(Z7)")
    draw = lambda: Matrix(z7, tuple(tuple(rng.randrange(7) for _ in range(3)) for _ in range(3)))
    carrier = MatrixRing(z7, 3)  # no axiom check: matrix_ring's sampled one takes about 2 s
    for _ in range(300):
        a, x = draw(), draw()
        assert a._rt is None
        _assert_commutator_matches(carrier, a, x)


# Differential test of the a*b + c*d kernel, RowTable.derivation_pair, the
# row-code pass of the derivation pair scan: derivation_pair(c, b, a, d) is
# c + b, a + d, c*b and a*b + c*d, checked against the operators and
# entrywise arithmetic on the same carriers, the order of every product
# mattering on M2(M2(Z2)).


def _assert_derivation_pair_matches(a, b, c, d, products=None):
    ring, rt = a.ring, a._rt
    if products is None:
        products = {(x, y): Matrix(ring, _ref_mul(x, y)) for x, y in ((a, b), (c, b), (c, d))}
    codes = rt.codes
    got = rt.derivation_pair(codes(c), codes(b), codes(a), codes(d))
    total, dtotal, prod, leibniz = map(rt.matrix, got)
    assert (total, dtotal, prod, leibniz) == (c + b, a + d, c * b, a * b + c * d)
    _assert_same_key(total, ring, _ref_add(c, b))
    _assert_same_key(dtotal, ring, _ref_add(a, d))
    _assert_same_key(prod, ring, products[c, b].rows)
    _assert_same_key(leibniz, ring, _ref_add(products[a, b], products[c, d]))


def test_mul_add_kernel_all_quadruples():
    carrier = SMALL_CARRIERS["M2(Z2)"]()
    assert carrier.row_codes is not None
    els = carrier.elements()
    products = {(a, b): Matrix(a.ring, _ref_mul(a, b)) for a in els for b in els}
    for a, b, c, d in product(els, repeat=4):
        _assert_derivation_pair_matches(a, b, c, d, products)


@pytest.mark.parametrize("label", sorted(COMMUTATOR_SAMPLED))
def test_mul_add_kernel_sampled_quadruples(label):
    carrier = COMMUTATOR_SAMPLED[label]()
    assert carrier.row_codes is not None
    rng = rng_for(0, f"mul-add:{label}")
    for _ in range(1000):
        a, b, c, d = (rand_elem(carrier, rng) for _ in range(4))
        _assert_derivation_pair_matches(a, b, c, d)


def _assert_ne_agrees(x, y):
    assert (x != y) is (not (x == y))
    assert (y != x) is (not (y == x))


def test_ne_agrees_with_eq():
    m2z2, m2z4 = SMALL_CARRIERS["M2(Z2)"](), SMALL_CARRIERS["M2(Z4)"]()
    m2t2 = SMALL_CARRIERS["M2(Z2[t]/(t^2))"]()
    els = m2z2.elements()
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            _assert_ne_agrees(a, b)
            assert (a != b) is (i != j)
        assert (a != m2z2.element(i)) is False
    # equal digits over different bases of four elements are different matrices
    for a, b in zip(m2z4.elements(), m2t2.elements()):
        assert a._data == b._data
        _assert_ne_agrees(a, b)
        assert a != b
    # across n, and above the row-table cap
    m3z2 = SAMPLED_CARRIERS["M3(Z2)"]()
    for a, b in ((m2z2.zero, m3z2.zero), (m2z2.one, m3z2.one), (els[5], m3z2.element(5))):
        _assert_ne_agrees(a, b)
        assert a != b
    z7 = zmod(7)
    big = Matrix(z7, ((1, 2, 3), (4, 5, 6), (0, 1, 2)))
    assert big._rt is None
    _assert_ne_agrees(big, Matrix(z7, big.rows))
    assert (big != Matrix(z7, big.rows)) is False
    _assert_ne_agrees(big, Matrix(z7, ((1, 2, 3), (4, 5, 6), (0, 1, 3))))
    # against operands that are not matrices
    for a in (els[0], els[9], big):
        for other in (0, None, "x", a.rows, a._data):
            _assert_ne_agrees(a, other)
            assert a != other and other != a


def test_block_view_above_row_table_cap(z3):
    # M6(Z3) stores its rows; its 3x3 blocks store row codes
    for b, c in _block_pairs(matrix_ring(z3, 3), rng_for(6, "block-iso:M6(Z3)"), 20):
        flat = block_flatten(b * c)
        assert flat._rt is None
        assert flat == block_flatten(b) * block_flatten(c)
        assert block_flatten(b + c) == block_flatten(b) + block_flatten(c)


def test_matrix_ring_refuses_more_than_64_coordinates(z2):
    # refused before construction: M9(Z2) has 81 coordinates, M6(Z2[t]/(t^2)) 72
    for base, n in ((z2, 9), (polyquot(2, 2), 6), (matrix_ring(z2, 2), 5)):
        with pytest.raises(CarrierTooLargeError, match="at most 64"):
            matrix_ring(base, n)
    # the constructor itself refuses
    with pytest.raises(CarrierTooLargeError, match="mat:zmod:2:9 has 81 Z_2 coordinates"):
        MatrixRing(z2, 9)
