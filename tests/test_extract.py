import pytest

from adlocal import (
    Matrix,
    NonCommutativeBaseError,
    PreconditionError,
    ShapeMismatchError,
    WitnessOracle,
    adversarial_oracle,
    assemble_offdiagonal,
    collect_unit_witnesses,
    commutator,
    extract_witness,
    identity_matrix,
    inner_derivation,
    maps_equal,
    matrix_ring,
    matrix_unit,
    pierce_component,
    staircase,
    verify_diagonal_differences,
    verify_unit_image_formula,
    zero_matrix,
    zmod,
)


def test_collect_unit_witnesses_for_e12_oracle(units2, z2, m2z2):
    table = collect_unit_witnesses(adversarial_oracle(units2[(1, 2)], m2z2), 2)
    assert table[(1, 2)] == zero_matrix(z2, 2)
    assert table[(2, 1)] == units2[(1, 2)]


def test_collect_unit_witnesses_for_e11_oracle(units2, m2z2):
    table = collect_unit_witnesses(adversarial_oracle(units2[(1, 1)], m2z2), 2)
    assert table[(1, 2)] == units2[(2, 2)]
    assert table[(2, 1)] == units2[(2, 2)]


def test_collect_unit_witnesses_zero_oracle(z2, m2z2):
    table = collect_unit_witnesses(adversarial_oracle(zero_matrix(z2, 2), m2z2), 2)
    assert all(w == zero_matrix(z2, 2) for w in table.values())


def test_collect_unit_witnesses_queries_units_in_row_major_order(m3z2, z2):
    hidden = adversarial_oracle(m3z2.element(133), m3z2)
    asked = []

    def select(x, y):
        asked.append((x, y))
        return hidden.select(x, y)

    table = collect_unit_witnesses(WitnessOracle(m3z2, select), 3)
    xo = staircase(z2, 3)
    keys = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    assert asked == [(matrix_unit(z2, 3, i, j), xo) for i, j in keys]
    assert list(table) == keys
    assert table == {(i, j): hidden.select(matrix_unit(z2, 3, i, j), xo) for i, j in keys}
    with pytest.raises(ShapeMismatchError):
        collect_unit_witnesses(hidden, 2)


@pytest.mark.parametrize(
    "extract",
    [
        extract_witness,
        collect_unit_witnesses,
        lambda oracle, n: verify_unit_image_formula(oracle, n, 1, 2, {}),
    ],
)
def test_oracle_over_a_non_matrix_carrier_is_refused_before_any_query(z2, extract):
    # a carrier without matrix units used to raise AttributeError
    calls = []
    oracle = WitnessOracle(z2, lambda x, y: calls.append((x, y)))
    with pytest.raises(ShapeMismatchError):
        extract(oracle, 2)
    assert calls == []


def test_assemble_offdiagonal_examples(units2, z2, m2z2):
    table12 = collect_unit_witnesses(adversarial_oracle(units2[(1, 2)], m2z2), 2)
    assert assemble_offdiagonal(table12, 2) == units2[(1, 2)]
    table11 = collect_unit_witnesses(adversarial_oracle(units2[(1, 1)], m2z2), 2)
    assert assemble_offdiagonal(table11, 2) == zero_matrix(z2, 2)
    zeros = {k: zero_matrix(z2, 2) for k in ((1, 2), (2, 1))}
    assert assemble_offdiagonal(zeros, 2) == zero_matrix(z2, 2)


def test_assemble_matches_literal_sandwich(m3z2, z2):
    for seed_a in (7, 133, 500):
        a = m3z2.element(seed_a)
        table = collect_unit_witnesses(adversarial_oracle(a, m3z2), 3)
        total = zero_matrix(z2, 3)
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    eii = matrix_unit(z2, 3, i, i)
                    ejj = matrix_unit(z2, 3, j, j)
                    total = total + eii * table[(j, i)] * ejj
        assert assemble_offdiagonal(table, 3) == total


def test_assemble_missing_witness(units2):
    from adlocal import MissingWitnessError

    with pytest.raises(MissingWitnessError):
        assemble_offdiagonal({(1, 2): units2[(2, 2)]}, 2)
    with pytest.raises(MissingWitnessError):
        assemble_offdiagonal({}, 2)


def test_diag_source_examples(units2, z2, m2z2):
    # the witness answered for the fixed pair (e12, x_o)
    diag_source = lambda a: collect_unit_witnesses(adversarial_oracle(a, m2z2), 2)[(1, 2)]
    assert diag_source(units2[(1, 2)]) == zero_matrix(z2, 2)
    assert diag_source(units2[(1, 1)]) == units2[(2, 2)]
    assert diag_source(zero_matrix(z2, 2)) == zero_matrix(z2, 2)


def test_extract_witness_examples(units2, z2, m2z2):
    abar = extract_witness(adversarial_oracle(units2[(1, 2)], m2z2), 2)
    assert abar == units2[(1, 2)]
    abar11 = extract_witness(adversarial_oracle(units2[(1, 1)], m2z2), 2)
    assert abar11 == units2[(2, 2)]
    assert maps_equal(
        inner_derivation(abar11, m2z2).evaluate,
        inner_derivation(units2[(1, 1)], m2z2).evaluate,
        m2z2.elements(),
    )
    assert extract_witness(adversarial_oracle(zero_matrix(z2, 2), m2z2), 2) == zero_matrix(z2, 2)


def test_extraction_query_budget(m2z2, m3z2):
    for carrier, n in ((m2z2, 2), (m3z2, 3)):
        a = carrier.element(carrier.cardinality // 3)
        inner = adversarial_oracle(a, carrier)
        calls = []

        def counting_select(x, y, inner=inner):
            calls.append((x, y))
            return inner.select(x, y)

        oracle = WitnessOracle(carrier, counting_select)
        abar = extract_witness(oracle, n)
        assert len(calls) == n * (n - 1)
        # the fixed pair's answer is the cached unit witness
        diag_source = collect_unit_witnesses(inner, n)[(1, 2)]
        assert all(abar.entry(k, k) == diag_source.entry(k, k) for k in range(1, n + 1))


def _is_central(carrier, z):
    # commuting with the matrix units, which span M_n(Z_m), is commuting
    # with everything: x -> [z, x] is additive
    return all(commutator(z, e) == carrier.zero for e in carrier.units())


@pytest.mark.parametrize("mod", [2, 3])
def test_extraction_sound_dimension_two(mod):
    carrier = matrix_ring(zmod(mod), 2)
    for a in carrier.elements():
        abar = extract_witness(adversarial_oracle(a, carrier), 2)
        assert maps_equal(
            inner_derivation(abar, carrier).evaluate,
            inner_derivation(a, carrier).evaluate,
            carrier.elements(),
        )
        assert _is_central(carrier, carrier.sub(abar, a))


def test_extraction_rejects_noncommutative_base():
    base = matrix_ring(zmod(2), 2)
    carrier = matrix_ring(base, 2)
    a = carrier.element(99)
    with pytest.raises(NonCommutativeBaseError):
        extract_witness(adversarial_oracle(a, carrier), 2)
    extract_witness(adversarial_oracle(a, carrier), 2, force=True)  # probing allowed


def test_fixed_pair_independence(m3z2):
    pairs = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    for idx in range(0, 512, 37):
        a = m3z2.element(idx)
        oracle = adversarial_oracle(a, m3z2)
        reference = extract_witness(oracle, 3)
        table = collect_unit_witnesses(oracle, 3)
        for fixed_pair in pairs:
            # the assembly of extract_witness with the diagonal of fixed_pair
            w = table[fixed_pair]
            diagonal = sum((pierce_component(w, k, k) for k in (1, 2, 3)), m3z2.zero)
            other = assemble_offdiagonal(table, 3) + diagonal
            if fixed_pair == (1, 2):
                assert other == reference
            assert _is_central(m3z2, m3z2.sub(other, reference))


def test_unit_image_formula_n2(units2, z2, m2z2):
    oracle = adversarial_oracle(units2[(1, 1)], m2z2)
    rep = verify_unit_image_formula(oracle, 2, 1, 2, collect_unit_witnesses(oracle, 2))
    assert rep.passed
    assert rep.checked == 1  # no replay possible without a third index
    zero = adversarial_oracle(zero_matrix(z2, 2), m2z2)
    zero_rep = verify_unit_image_formula(zero, 2, 2, 1, collect_unit_witnesses(zero, 2))
    assert zero_rep.passed


def test_unit_image_formula_n3_replays_components(m3z2):
    a = m3z2.element(311)
    oracle = adversarial_oracle(a, m3z2)
    rep = verify_unit_image_formula(oracle, 3, 1, 2, collect_unit_witnesses(oracle, 3))
    assert rep.passed
    assert rep.checked == 9  # formula + the eight component identities


def test_unit_image_formula_reads_the_carriers_units(monkeypatch, m3z2):
    # the units come from the carrier, not from matrix_unit on every call
    import adlocal.extract

    def refuse(*args):
        raise AssertionError("matrix_unit called")

    monkeypatch.setattr(adlocal.extract, "matrix_unit", refuse, raising=False)
    oracle = adversarial_oracle(m3z2.element(311), m3z2)
    table = collect_unit_witnesses(oracle, 3)
    for i, j in ((1, 2), (3, 1)):
        rep = verify_unit_image_formula(oracle, 3, i, j, table)
        assert rep.passed and rep.checked == 9


def _shifted_answer(oracle, query, z):
    """``oracle`` with the answer to ``query`` shifted by z."""

    def select(x, y):
        w = oracle.select(x, y)
        return w + z if (x, y) == query else w

    return WitnessOracle(oracle.carrier, select, oracle.induced)


def test_unit_image_formula_holds_for_any_witness_at_n2(z2, units2, m2z2):
    # at n = 2 the formula is an identity in a(ij) alone, so even a
    # shifted unit answer passes
    xo = staircase(z2, 2)
    oracle = adversarial_oracle(m2z2.element(9), m2z2)
    for unit, z in ((units2[(1, 2)], units2[(2, 1)]), (units2[(2, 1)], units2[(1, 2)])):
        for i, j in ((1, 2), (2, 1)):
            shifted = _shifted_answer(oracle, (unit, xo), z)
            rep = verify_unit_image_formula(shifted, 2, i, j, collect_unit_witnesses(shifted, 2))
            assert rep.passed and rep.checked == 1


@pytest.mark.parametrize(
    "query, z, ij, tag, checked, inputs, moved",
    [
        # a(31) + e13 moves entry (1,3) of the assembly S, which the formula
        # at e21 reads through e21 * S: the first identity fails
        (((3, 1), None), (1, 3), (2, 1), "unit image formula", 1, [(2, 1)], (2, 3)),
        # the replay's select(e13, e12) + e31 shows at e33 * w * e12
        (((1, 3), (1, 2)), (3, 1), (1, 2), "witness overlap at (i,m)", 4, [(1, 2), (3, 3)], (3, 2)),
        # the replay's select(e32, e12) + e23 shows at e12 * w * e33
        (((3, 2), (1, 2)), (2, 3), (1, 2), "witness overlap at (m,j)", 5, [(1, 2), (3, 3)], (1, 3)),
    ],
)
def test_unit_image_formula_stops_at_the_first_failing_identity(
    z2, m3z2, query, z, ij, tag, checked, inputs, moved
):
    e = lambda i, j: matrix_unit(z2, 3, i, j)
    x, y = query
    point = (e(*x), staircase(z2, 3) if y is None else e(*y))
    oracle = _shifted_answer(adversarial_oracle(m3z2.element(311), m3z2), point, e(*z))
    rep = verify_unit_image_formula(oracle, 3, *ij, collect_unit_witnesses(oracle, 3))
    assert rep.checked == checked and len(rep.failures) == 1
    failure = rep.failures[0]
    assert (failure.note, failure.inputs) == (tag, tuple(e(*u) for u in inputs))
    assert failure.got - failure.expected == e(*moved)


def test_unit_image_formula_dimension_mismatch(m3z2):
    oracle = adversarial_oracle(m3z2.element(5), m3z2)
    with pytest.raises(ShapeMismatchError):
        verify_unit_image_formula(oracle, 2, 1, 2, collect_unit_witnesses(oracle, 3))


@pytest.mark.parametrize("i, j", [(1, 4), (0, 2), (4, 1), (2, 2)])
def test_unit_image_formula_bad_unit_is_refused_before_any_query(m3z2, i, j):
    inner = adversarial_oracle(m3z2.element(311), m3z2)
    calls = []

    def counting_select(x, y):
        calls.append((x, y))
        return inner.select(x, y)

    table = collect_unit_witnesses(inner, 3)
    with pytest.raises(ValueError):
        verify_unit_image_formula(WitnessOracle(m3z2, counting_select), 3, i, j, table)
    assert calls == []


def test_diagonal_differences_examples(z2):
    z3x3 = zero_matrix(z2, 3)
    ident = identity_matrix(z2, 3)
    assert verify_diagonal_differences(z3x3, ident).passed

    b = Matrix(z2, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    c = Matrix(z2, ((0, 0, 0), (0, 1, 0), (0, 0, 1)))
    xo = staircase(z2, 3)
    assert commutator(b, xo) == commutator(c, xo) == matrix_unit(z2, 3, 1, 2)
    rep = verify_diagonal_differences(b, c)
    assert rep.passed
    assert rep.checked == 6

    anyb = Matrix(z2, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert verify_diagonal_differences(anyb, anyb).passed


def test_diagonal_differences_precondition(z2):
    b = matrix_unit(z2, 3, 1, 1)
    c = matrix_unit(z2, 3, 2, 2)
    with pytest.raises(PreconditionError):
        verify_diagonal_differences(b, c)
