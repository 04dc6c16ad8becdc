from itertools import product

import pytest

from adlocal import (
    DerivationMap,
    InconsistentOracleError,
    Matrix,
    NonCommutativeBaseError,
    VerificationFailedError,
    WitnessOracle,
    adversarial_oracle,
    block_flatten,
    check_derivation,
    check_two_local,
    commutator,
    corner_embed,
    corner_extract,
    double_derivation,
    extend_derivation_to_n,
    extend_extract_compress,
    extend_two_local_to_n,
    identity_matrix,
    inner_derivation,
    maps_equal,
    matrix_ring,
    matrix_unit,
    pair_oracle,
    parse_ring_spec,
    verification_domain,
    verification_elements,
    zero_matrix,
    zmod,
)
from adlocal import extend
from adlocal.rings import Zmod
from adlocal.sampling import rng_for


def literal_six_condition_extension(corner_eval, A):
    """Independent oracle for the corner extension, written as literal
    matrix-unit products: restriction on the (1,1) corner, transport by
    e21*.*e12 on the (2,2) corner, fixed unit images e12 and -e21, the two
    off-diagonal rules, summed over the four Pierce components."""
    z = A.zero
    e11 = matrix_unit(A, 2, 1, 1)
    e12 = matrix_unit(A, 2, 1, 2)
    e21 = matrix_unit(A, 2, 2, 1)
    e22 = matrix_unit(A, 2, 2, 2)
    d_e12, d_e21 = e12, -e21

    def corner(x):
        return Matrix(A, ((corner_eval(x.entry(1, 1)), z), (z, z)))

    def evaluate(x):
        a1 = e11 * x * e11
        a12 = e11 * x * e22
        a21 = e22 * x * e11
        a2 = e22 * x * e22
        out = corner(a1)
        out = out + e21 * corner(e12 * a2 * e21) * e12
        out = out + corner(a12 * e21) * e12 + a12 * e21 * d_e12
        out = out + d_e21 * e12 * a21 + e21 * corner(e12 * a21)
        return out

    return evaluate


def rand(ring, rng):
    return ring.element(rng.randrange(ring.cardinality))


def corner_rule(D):
    """D's corner extension to M_2(A): [[p, q], [r, s]] -> [[Dp, Dq + q], [Dr - r, Ds]]."""
    ev = D.evaluate

    def rule(b):
        (p, q), (r, s) = b.rows
        return Matrix(D.carrier, ((ev(p), ev(q) + q), (ev(r) - r, ev(s))))

    return rule


def test_extension_matches_literal_conditions_scalar_corner(z2):
    # the scalar corner M1(Z2) doubles into M2(Z2)
    A = matrix_ring(z2, 1)
    D = DerivationMap(A, lambda a: A.zero, A.elements())
    doubled = double_derivation(D)
    literal = literal_six_condition_extension(D.evaluate, A)
    for b in matrix_ring(A, 2).elements():
        assert doubled.evaluate(block_flatten(b)) == block_flatten(literal(b))


def test_extension_matches_literal_conditions_matrix_corner(m2z2):
    b = matrix_unit(zmod(2), 2, 1, 2)
    D = inner_derivation(b, m2z2)
    doubled = double_derivation(D)
    literal = literal_six_condition_extension(D.evaluate, m2z2)
    big = matrix_ring(m2z2, 2)
    rng = rng_for(0, "literal-vs-fast")
    sample = [big.element(rng.randrange(big.cardinality)) for _ in range(300)]
    for x in list(big.units()) + sample:
        assert doubled.evaluate(block_flatten(x)) == block_flatten(literal(x))


def test_fixed_unit_images(z2, m2z2):
    # the block units E12 = e13 + e24 -> E12 and E21 = e31 + e42 -> -E21
    E12 = block_flatten(matrix_unit(m2z2, 2, 1, 2))
    E21 = block_flatten(matrix_unit(m2z2, 2, 2, 1))
    for b_idx in (0, 5, 9):
        doubled = double_derivation(inner_derivation(m2z2.element(b_idx), m2z2))
        assert doubled.evaluate(E12) == E12
        assert doubled.evaluate(E21) == -E21


def test_zero_corner_map_extends_to_ad_e11(z2, m2z2, units2):
    A = matrix_ring(z2, 1)
    doubled = double_derivation(DerivationMap(A, lambda a: A.zero, A.elements()))
    ad_e11 = inner_derivation(units2[(1, 1)], m2z2)
    assert maps_equal(doubled.evaluate, ad_e11.evaluate, m2z2.elements())


def test_extension_restricts_to_corner_map(m2z2):
    for b_idx in range(16):
        b = m2z2.element(b_idx)
        D = inner_derivation(b, m2z2)
        doubled = double_derivation(D)
        for v in m2z2.elements():
            assert doubled.evaluate(corner_embed(v, 4)) == corner_embed(D.evaluate(v), 4)


def test_inner_extension_predicted_witness(m2z2):
    b = matrix_unit(zmod(2), 2, 1, 2)
    D = inner_derivation(b, m2z2)
    doubled = double_derivation(D)
    E11 = matrix_unit(m2z2, 2, 1, 1)
    E12 = matrix_unit(m2z2, 2, 1, 2)
    E21 = matrix_unit(m2z2, 2, 2, 1)
    w_pred = Matrix(m2z2, ((b, m2z2.zero), (m2z2.zero, m2z2.zero))) + E21 * Matrix(
        m2z2, ((b, m2z2.zero), (m2z2.zero, m2z2.zero))
    ) * E12 + E11
    m4 = matrix_ring(zmod(2), 4)
    predicted = inner_derivation(block_flatten(w_pred), m4)
    assert maps_equal(doubled.evaluate, predicted.evaluate, verification_domain(m4))
    # flattened, the predicted witness reads e12 + e34 + e11 + e22
    z2 = zmod(2)
    expected_flat = (
        matrix_unit(z2, 4, 1, 2)
        + matrix_unit(z2, 4, 3, 4)
        + matrix_unit(z2, 4, 1, 1)
        + matrix_unit(z2, 4, 2, 2)
    )
    assert block_flatten(w_pred) == expected_flat


def test_double_derivation_matches_block_composition(m2z2):
    big = matrix_ring(m2z2, 2)
    for b_idx in (1, 5, 12):
        D = inner_derivation(m2z2.element(b_idx), m2z2)
        doubled, rule = double_derivation(D), corner_rule(D)
        rng = rng_for(9, "double-vs-block")
        sample = [big.element(rng.randrange(big.cardinality)) for _ in range(400)]
        for x in list(big.units()) + sample:
            assert doubled.evaluate(block_flatten(x)) == block_flatten(rule(x))


def test_double_derivation_untabulated_corner(z2):
    # doubling into M8(Z2) from M4(Z2), whose 65,536 elements are never
    # tabulated: the block maps are computed at the blocks met
    m4, m8 = matrix_ring(z2, 4), matrix_ring(z2, 8)
    rng = rng_for(4, "untabulated-doubling")
    sample = [m8.element(rng.randrange(m8.cardinality)) for _ in range(150)]
    for b in (matrix_unit(z2, 4, 1, 2), m4.element(rng.randrange(m4.cardinality))):
        D = inner_derivation(b, m4)
        doubled = double_derivation(D)
        # the predicted witness diag(b + 1, b)
        w = block_flatten(Matrix(m4, ((b + m4.one, m4.zero), (m4.zero, b))))
        for x in m8.units() + tuple(sample):
            assert doubled.evaluate(x) == commutator(w, x)
        rule = corner_rule(D)
        for _ in range(50):
            x = Matrix(m4, tuple(tuple(rand(m4, rng) for _ in "pq") for _ in "rs"))
            assert doubled.evaluate(block_flatten(x)) == block_flatten(rule(x))


def test_double_derivation_evaluates_each_block_value_once(z2):
    m4 = matrix_ring(z2, 4)
    b = matrix_unit(z2, 4, 1, 2)
    inner = inner_derivation(b, m4)
    calls = []

    def evaluate(v):
        calls.append(v)
        return inner.evaluate(v)

    doubled = double_derivation(DerivationMap(m4, evaluate, inner.domain))
    p, q, r = (m4.element(i) for i in (1, 2, 3))
    x = block_flatten(Matrix(m4, ((p, q), (r, p))))
    w = block_flatten(Matrix(m4, ((b + m4.one, m4.zero), (m4.zero, b))))
    assert doubled.evaluate(x) == doubled.evaluate(x) == commutator(w, x)
    # D runs once at each of the three distinct blocks p, q and r
    assert sorted(calls, key=m4.index) == [p, q, r]


# corner A and how many seeded 2x2 grids over A to check (None: every one);
# M4(Z2) has a row table, M2(M2(Z3)) has none (6,561 possible rows)
DOUBLING_CASES = {
    "M2(Z2)->M4(Z2)": (lambda: matrix_ring(zmod(2), 2), None),
    "M1(M2(Z3))->M2(M2(Z3))": (lambda: matrix_ring(matrix_ring(zmod(3), 2), 1), 600),
}


@pytest.mark.parametrize("kind", ["inner", "square"])
@pytest.mark.parametrize("case", sorted(DOUBLING_CASES))
def test_double_derivation_matches_four_block_reference(case, kind):
    make, samples = DOUBLING_CASES[case]
    A = make()
    rng = rng_for(14, f"double-reference:{case}")
    if kind == "inner":
        D = inner_derivation(A.element(rng.randrange(A.cardinality)), A)
    else:
        # v -> v*v is neither additive nor a derivation
        D = DerivationMap(A, lambda v: v * v, verification_domain(A))
    if samples is None:
        grids = list(product(A.elements(), repeat=4))
    else:
        grids = [tuple(rand(A, rng) for _ in "pqrs") for _ in range(samples)]
    # corner-embedded points have an all-zero bottom half
    grids += [(v, A.zero, A.zero, A.zero) for v in A.elements()]
    doubled, rule = double_derivation(D), corner_rule(D)
    for p, q, r, s in grids:
        b = Matrix(A, ((p, q), (r, s)))
        got, want = doubled.evaluate(block_flatten(b)), block_flatten(rule(b))
        assert got == want and got.rows == want.rows, b


def four_block(D):
    """The corner rule of D on flat 2m x 2m matrices: split into the 2x2
    grid of m x m blocks, apply :func:`corner_rule`, flatten back."""
    A, rule = D.carrier, corner_rule(D)
    m = A.n

    def evaluate(x):
        rows = x.rows
        grid = tuple(
            tuple(
                Matrix(A.base, tuple(r[j * m : (j + 1) * m] for r in rows[i * m : (i + 1) * m]))
                for j in (0, 1)
            )
            for i in (0, 1)
        )
        return block_flatten(rule(Matrix(A, grid)))

    return evaluate


def test_doubled_map_returns_listed_elements_once_its_carrier_is_listed():
    # a Z2 object of its own has its own M2 and M4, so the M4(Z2) the other
    # tests share is neither listed nor left unlisted here
    z2 = Zmod(2)
    A, m4 = matrix_ring(z2, 2), matrix_ring(z2, 4)
    rng = rng_for(30, "double-before-and-after-listing")
    D = inner_derivation(A.element(rng.randrange(A.cardinality)), A)
    doubled, reference = double_derivation(D), four_block(D)
    points = [m4.element(rng.randrange(m4.cardinality)) for _ in range(300)]
    points += [corner_embed(v, 4) for v in A.elements()]
    wants = [reference(x) for x in points]
    assert m4._elements is None
    before = [doubled.evaluate(x) for x in points]
    listed = m4.elements()
    after = [doubled.evaluate(x) for x in points]
    for x, want, old, new in zip(points, wants, before, after):
        assert old == want and new == want, x
        assert new is listed[m4.index(want)], x


def test_extension_to_m8_stays_on_the_row_table(z2, m2z2):
    # M8(Z2) has 2^64 elements and is never listed: every value of the
    # two doublings from M2(Z2) is a Matrix built on the M8 row table
    m4, m8 = matrix_ring(z2, 4), matrix_ring(z2, 8)
    rng = rng_for(30, "extension-to-m8")
    D = inner_derivation(m2z2.element(rng.randrange(m2z2.cardinality)), m2z2)
    ext = extend_derivation_to_n(D, 8)
    reference = four_block(DerivationMap(m4, four_block(D), ()))
    points = list(m8.units()) + [m8.element(rng.randrange(m8.cardinality)) for _ in range(300)]
    for x in points:
        got = ext.evaluate(x)
        assert got.__class__ is Matrix and m8.row_codes.codes(got) is not None
        assert got == reference(x), x


def test_compression_preserves_leibniz(z2):
    # displayed computation: e D(ab) e = (e D(a) e) b + a (e D(b) e)
    # for a, b supported in the top-left 3x3 corner of M_4
    m4 = matrix_ring(z2, 4)
    m3 = matrix_ring(z2, 3)
    e = corner_embed(identity_matrix(z2, 3), 4)
    w = m4.element(48813)
    D = inner_derivation(w, m4)
    rng = rng_for(1, "compression")
    for _ in range(60):
        a = corner_embed(m3.element(rng.randrange(512)), 4)
        b = corner_embed(m3.element(rng.randrange(512)), 4)
        lhs = e * D.evaluate(a * b) * e
        rhs = (e * D.evaluate(a) * e) * b + a * (e * D.evaluate(b) * e)
        assert lhs == rhs


def test_extend_derivation_to_n3(z2, m2z2, units2):
    D = inner_derivation(units2[(1, 2)], m2z2)
    ext = extend_derivation_to_n(D, 3)
    assert ext.carrier == matrix_ring(z2, 3)
    rep = check_derivation(ext, pair_cap=0, pair_samples=1500)
    assert rep.passed
    for v in m2z2.elements():
        assert ext.evaluate(corner_embed(v, 3)) == corner_embed(D.evaluate(v), 3)
    # the doubling stage is itself a derivation on its carrier, and the
    # extension is its compression by e = e11 + e22 + e33
    doubled = double_derivation(D)
    assert check_derivation(doubled, pair_cap=0, pair_samples=400).passed
    e = corner_embed(identity_matrix(z2, 3), 4)
    for x in matrix_ring(z2, 3).elements():
        y = corner_embed(x, 4)
        assert corner_embed(ext.evaluate(x), 4) == e * doubled.evaluate(y) * e


def test_extend_derivation_power_of_two_skips_compression(z2, m2z2, units2):
    D = inner_derivation(units2[(1, 2)], m2z2)
    ext = extend_derivation_to_n(D, 4)
    m4 = matrix_ring(z2, 4)
    assert ext.carrier == m4
    assert maps_equal(ext.evaluate, double_derivation(D).evaluate, m4.elements())


def test_extend_derivation_zero_map(z2, m2z2):
    zero = zero_matrix(z2, 2)
    D = DerivationMap(m2z2, lambda x: zero, verification_domain(m2z2))
    ext = extend_derivation_to_n(D, 3)
    for v in m2z2.elements():
        assert ext.evaluate(corner_embed(v, 3)) == zero_matrix(z2, 3)


def test_corner_two_local_fixed_unit_image(m2z2, m2z3, units2):
    # the block units e13 + e24 -> itself and e31 + e42 -> -(e31 + e42);
    # over Z3, where -1 != 1, this pins the signs of the (D + id) and
    # (D - id) off-diagonal block maps
    corner_oracles = [(m2z2, units2[(1, 2)])]
    corner_oracles += [(m2z3, a) for a in (matrix_unit(zmod(3), 2, 1, 2), m2z3.element(47))]
    for carrier, a in corner_oracles:
        R = carrier.base
        ext = extend_two_local_to_n(adversarial_oracle(a, carrier), 4)
        E12 = matrix_unit(R, 4, 1, 3) + matrix_unit(R, 4, 2, 4)
        E21 = matrix_unit(R, 4, 3, 1) + matrix_unit(R, 4, 4, 2)
        assert ext.value(E12) == E12
        assert ext.value(E21) == -E21
        if R.cardinality > 2:
            assert ext.value(E21) != E21


def test_corner_two_local_second_case_transport(m2z2, units2):
    # element supported in the (2,2) block: the extension acts there as
    # the corner map transported, and the (2,2) block of the answer
    # implements the corner value
    oracle = adversarial_oracle(units2[(1, 1)], m2z2)
    ext = extend_two_local_to_n(oracle, 4)
    z = m2z2.zero
    for v in m2z2.elements():
        a = block_flatten(Matrix(m2z2, ((z, z), (z, v))))
        assert ext.value(a) == block_flatten(Matrix(m2z2, ((z, z), (z, oracle.value(v)))))
        w = Matrix(zmod(2), tuple(row[2:] for row in ext.select(a, a).rows[2:]))
        assert commutator(w, v) == oracle.value(v)


def test_corner_two_local_zero(z2, m2z2, units2):
    oracle = adversarial_oracle(units2[(1, 1)], m2z2)
    ext = extend_two_local_to_n(oracle, 4)
    zero = zero_matrix(z2, 4)
    assert ext.value(zero) == zero


def test_inconsistent_corner_oracle_detected(m2z2, units2):
    e12, e21 = units2[(1, 2)], units2[(2, 1)]
    honest = adversarial_oracle(units2[(1, 1)], m2z2)

    calls = []

    def lying_select(x, y):
        calls.append((x, y))
        # answers witness different maps at the same point across queries
        return honest.select(x, y) if len(calls) % 2 else units2[(1, 2)]

    oracle = WitnessOracle(m2z2, lying_select)
    ext = extend_two_local_to_n(oracle, 4)
    big = ext.carrier
    with pytest.raises(InconsistentOracleError):
        for i in range(0, big.cardinality, 97):
            x = big.element(i)
            ext.select(x, x)


def test_extend_two_local_restriction(m2z2, units2):
    oracle = adversarial_oracle(units2[(1, 2)], m2z2)
    ext = extend_two_local_to_n(oracle, 4)
    for v in m2z2.elements():
        assert ext.value(corner_embed(v, 4)) == corner_embed(oracle.value(v), 4)


def test_extend_two_local_zero_oracle(z2, m2z2):
    zero = zero_matrix(z2, 2)
    oracle = WitnessOracle(m2z2, lambda x, y: zero)
    ext = extend_two_local_to_n(oracle, 4)
    for v in m2z2.elements():
        assert ext.value(corner_embed(v, 4)) == zero_matrix(z2, 4)


@pytest.mark.parametrize(
    "spec, n", [("zmod:2", 3), ("zmod:2", 5), ("zmod:3", 3), ("poly:2:2", 3)]
)
def test_extension_answers_are_the_corners_of_the_top_stage_answers(spec, n):
    # the top stage of the doubling chain is M_top(R), top the least power
    # of two >= n; its constraints on corner-embedded points split by
    # blocks, so the corner of its least answer is the least answer in
    # M_n(R), which is what the extension gives directly
    R = parse_ring_spec(spec)
    corner, carrier = matrix_ring(R, 2), matrix_ring(R, n)
    top = 1 << (n - 1).bit_length()
    big = matrix_ring(R, top)
    rng = rng_for(0, f"extension-differential:{spec}:{n}")
    points = [carrier.element(rng.randrange(carrier.cardinality)) for _ in range(3)]
    for _ in range(2):
        oracle = adversarial_oracle(corner.element(rng.randrange(corner.cardinality)), corner)
        ext = extend_two_local_to_n(oracle, n)
        top_oracle = pair_oracle(big, extend_two_local_to_n(oracle, top).value)
        for x in carrier.units():
            for y in points:
                want = top_oracle.select(corner_embed(x, top), corner_embed(y, top))
                assert ext.select(x, y) == corner_extract(want, n), (x, y)


def test_planted_non_inner_value_is_carried_then_refused(z2, m2z2, units2):
    # x -> x at e11 and [e12, x] elsewhere: no element implements it at e11,
    # yet the oracle carries the value, and the failure shows on the pairs
    e11, e12 = units2[(1, 1)], units2[(1, 2)]
    oracle = pair_oracle(m2z2, lambda x: x if x == e11 else commutator(e12, x))
    assert oracle.value(e11) == e11
    for n in (3, 4, 5):
        with pytest.raises(InconsistentOracleError):
            extend_extract_compress(oracle, n)
        carrier = matrix_ring(z2, n)
        ext = extend_two_local_to_n(oracle, n)
        dmap = DerivationMap(carrier, ext.value, verification_domain(carrier))
        report = check_two_local(dmap)
        E11 = matrix_unit(z2, n, 1, 1)
        assert report.failures[0].inputs == (E11, E11)


@pytest.mark.slow
def test_extend_two_local_sampled_two_locality(z2, m2z2, units2):
    # when the corner oracle's per-pair witnesses patch into one map
    # (constant witnesses do), the extension's induced map admits a
    # brute-force witness on a seeded sample of one thousand M_4(Z_2) pairs
    carrier = matrix_ring(z2, 4)
    zero = zero_matrix(z2, 2)
    for corner_witness in (zero, units2[(1, 2)]):
        oracle = WitnessOracle(m2z2, lambda x, y, w=corner_witness: w)
        ext = extend_two_local_to_n(oracle, 4)
        dmap = DerivationMap(carrier, ext.value, verification_domain(carrier))
        report = check_two_local(dmap, pair_cap=0, pair_samples=1000)
        assert report.passed
        assert report.checked == 16 * 16 + 1000


def test_adversarial_extension_globally_two_local(z2, m2z2, units2):
    # the extension of a minimal-witness corner oracle is defined pointwise
    # from the corner values, so its induced map on M4(Z2) is 2-local on
    # every unit pair and on a seeded sample of 300 further pairs
    oracle = adversarial_oracle(units2[(1, 2)], m2z2)
    ext = extend_two_local_to_n(oracle, 4)
    carrier = matrix_ring(z2, 4)
    dmap = DerivationMap(carrier, ext.value, verification_domain(carrier))
    report = check_two_local(dmap, pair_cap=0, pair_samples=300)
    assert report.passed
    assert report.checked == 16 * 16 + 300


def test_roundtrip_constant_corner_oracle(z2, m2z2, units2):
    # corner restriction of the inner map of e12 + e33: implemented on the
    # corner by e12, and the roundtrip returns exactly e12
    e12 = units2[(1, 2)]
    oracle = WitnessOracle(m2z2, lambda x, y: e12)
    assert extend_extract_compress(oracle, 4) == e12


def test_roundtrip_adversarial_corner_oracles(m2z2):
    for idx in (0, 1, 4, 8, 9, 15):
        a = m2z2.element(idx)
        oracle = adversarial_oracle(a, m2z2)
        c = extend_extract_compress(oracle, 4)
        for x in m2z2.elements():
            assert commutator(c, x) == commutator(a, x)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_roundtrip_every_corner_oracle_beyond_n4(m2z2, n):
    # two or three doublings of every M2(Z2) corner oracle, compressed
    # where n is not a power of two, read back to the corner map
    for a in m2z2.elements():
        c = extend_extract_compress(adversarial_oracle(a, m2z2), n)
        for x in m2z2.elements():
            assert commutator(c, x) == commutator(a, x)


def test_roundtrip_zero_oracle(z2, m2z2):
    zero = zero_matrix(z2, 2)
    oracle = WitnessOracle(m2z2, lambda x, y: zero)
    c = extend_extract_compress(oracle, 4)
    for x in m2z2.elements():
        assert commutator(c, x) == zero


@pytest.mark.parametrize("n", [3, 4])
def test_roundtrip_reports_the_first_corner_element_a_wrong_witness_fails(
    monkeypatch, z2, m2z2, units2, n
):
    # shift the extracted global witness by the non-central e12: its corner
    # c + e12 breaks the corner map exactly where [e12, x] != 0, so the
    # counterexample is the first such x in verification_elements order
    extract, shift = extend.extract_witness, matrix_unit(z2, n, 1, 2)
    monkeypatch.setattr(
        extend,
        "extract_witness",
        lambda oracle, n, force=False: extract(oracle, n, force=force) + shift,
    )
    e12 = units2[(1, 2)]
    want = next(x for x in verification_elements(m2z2) if commutator(e12, x) != m2z2.zero)
    with pytest.raises(VerificationFailedError) as info:
        extend_extract_compress(adversarial_oracle(m2z2.element(9), m2z2), n)
    assert info.value.counterexample == want


def test_roundtrip_rejects_noncommutative_base():
    base = matrix_ring(zmod(2), 2)
    corner = matrix_ring(base, 2)
    oracle = adversarial_oracle(corner.element(3), corner)
    with pytest.raises(NonCommutativeBaseError):
        extend_extract_compress(oracle, 4)
