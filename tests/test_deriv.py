import random
from dataclasses import replace
from functools import partial
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlocal import (
    CarrierTooLargeError,
    DerivationMap,
    InconsistentOracleError,
    Matrix,
    MatrixRing,
    PreconditionError,
    Ring,
    ShapeMismatchError,
    WitnessOracle,
    adversarial_oracle,
    check_derivation,
    check_two_local,
    commutator,
    corner_embed,
    generate_subring,
    identity_matrix,
    inner_derivation,
    maps_equal,
    matrix_index,
    matrix_ring,
    matrix_unit,
    pair_oracle,
    parse_ring_spec,
    staircase,
    verification_domain,
    verification_elements,
    witness_search,
    zero_matrix,
    zmod,
)
from adlocal import deriv
from adlocal.deriv import (
    ECHELON_CACHE_FORMS,
    TWO_LOCAL_PAIR_CAP,
    TWO_LOCAL_PAIR_SAMPLE,
    Failure,
    VerificationReport,
    _Coordinates,
    _coordinates,
    _echelon,
    _pair_stream,
)
from adlocal.rings import Zmod
from adlocal.sampling import rng_for


def zero2(z2):
    return zero_matrix(z2, 2)


def test_inner_derivation_examples(z2, m2z2, units2):
    zmap = inner_derivation(zero2(z2), m2z2)
    assert all(zmap.evaluate(x) == zero2(z2) for x in m2z2.elements())
    idmap = inner_derivation(identity_matrix(z2, 2), m2z2)
    assert all(idmap.evaluate(x) == zero2(z2) for x in m2z2.elements())
    d = inner_derivation(units2[(1, 2)], m2z2)
    assert d.evaluate(units2[(2, 1)]) == units2[(1, 1)] + units2[(2, 2)]


def test_check_derivation_inner_passes(m2z2, units2):
    report = check_derivation(inner_derivation(units2[(1, 2)], m2z2))
    assert report.passed
    assert report.checked == 256


def test_check_derivation_rejects_identity(m2z2, units2):
    ident = DerivationMap(m2z2, lambda x: x, verification_domain(m2z2))
    report = check_derivation(ident)
    assert not report.passed
    f = report.failures[0]
    assert f.inputs == (units2[(1, 1)], units2[(1, 1)])
    assert f.note == "leibniz"
    # D(e11*e11) = e11 while D(e11)e11 + e11 D(e11) = 2*e11 = 0 over Z_2
    assert f.got == units2[(1, 1)]
    assert f.expected == zero_matrix(zmod(2), 2)


def test_check_derivation_zero_map(m2z2, z2):
    zmap = DerivationMap(m2z2, lambda x: zero2(z2), verification_domain(m2z2))
    assert check_derivation(zmap).passed


@pytest.mark.parametrize("mod", [2, 3])
def test_every_inner_map_is_a_derivation(mod):
    carrier = matrix_ring(zmod(mod), 2)
    for a in carrier.elements():
        assert check_derivation(inner_derivation(a, carrier)).passed


def test_central_shift(m2z2, z2):
    ident = identity_matrix(z2, 2)
    for a in m2z2.elements():
        for z in (zero2(z2), ident):
            left = inner_derivation(a, m2z2)
            right = inner_derivation(a + z, m2z2)
            assert maps_equal(left.evaluate, right.evaluate, m2z2.elements())


def test_witness_search_examples(m2z2, units2, z2):
    assert witness_search(m2z2, [(units2[(1, 2)], zero2(z2))]) == zero2(z2)
    found = witness_search(m2z2, [(units2[(1, 2)], units2[(1, 2)]), (units2[(2, 1)], units2[(2, 1)])])
    assert found == units2[(2, 2)]
    assert witness_search(m2z2, [(units2[(1, 1)], units2[(1, 1)])]) is None


def _scan(carrier, constraints):
    """Reference witness search: the first element of the carrier, in
    canonical order, that satisfies every constraint."""
    mul, sub = carrier.mul, carrier.sub
    for b in carrier.elements():
        if all(sub(mul(b, x), mul(x, b)) == t for x, t in constraints):
            return b
    return None


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_witness_search_matches_brute_force_scan(data):
    carrier = matrix_ring(zmod(2), data.draw(st.sampled_from([2, 3])))
    card = carrier.cardinality
    k = data.draw(st.integers(1, 3))
    constraints = []
    for _ in range(k):
        x = carrier.element(data.draw(st.integers(0, card - 1)))
        t = carrier.element(data.draw(st.integers(0, card - 1)))
        constraints.append((x, t))
    assert witness_search(carrier, constraints) == _scan(carrier, constraints)


@pytest.mark.parametrize("spec", ["mat:zmod:2:2", "mat:zmod:3:2", "zmod:4"])
def test_witness_search_matches_scan_on_every_single_constraint(spec):
    carrier = parse_ring_spec(spec)
    els = carrier.elements()
    for x in els:
        for t in els:
            assert witness_search(carrier, [(x, t)]) == _scan(carrier, [(x, t)]), (x, t)


@pytest.mark.parametrize(
    "spec, trials",
    [
        ("mat:zmod:4:2", 60),
        ("mat:zmod:2:3", 60),
        ("mat:poly:2:2:2", 60),
        ("mat:zmod:6:2", 60),  # a modulus that is not a prime power
        ("mat:mat:zmod:2:2:2", 12),  # 65,536 elements to scan
    ],
)
def test_witness_search_matches_scan_on_seeded_systems(spec, trials):
    carrier = parse_ring_spec(spec)
    card = carrier.cardinality
    rng = random.Random(f"witness-search-diff:{spec}")
    solvable = 0
    for trial in range(trials):
        xs = [carrier.element(rng.randrange(card)) for _ in range(1 + trial % 3)]
        if trial % 2:
            a = carrier.element(rng.randrange(card))
            constraints = [(x, commutator(a, x)) for x in xs]
        else:
            constraints = [(x, carrier.element(rng.randrange(card))) for x in xs]
        found = witness_search(carrier, constraints)
        assert found == _scan(carrier, constraints), constraints
        solvable += found is not None
    assert solvable >= trials // 2  # every consistent system has a witness


def test_witness_search_carrier_bounds():
    m8 = MatrixRing(zmod(2), 8)  # 64 coordinates, the largest accepted
    x = staircase(zmod(2), 8)
    a = m8.element(random.Random(8).randrange(m8.cardinality))
    found = witness_search(m8, [(x, commutator(a, x))])
    assert commutator(found, x) == commutator(a, x)
    assert matrix_index(found) <= matrix_index(a)
    with pytest.raises(CarrierTooLargeError):
        witness_search(MatrixRing(zmod(2), 9), [])

    class Custom(Ring):
        spec = "custom"
        cardinality = 2
        commutative_declared = True

    with pytest.raises(PreconditionError):
        witness_search(Custom(), [(0, 0)])


@pytest.mark.parametrize(
    "role, spec, index",
    [
        ("point", "mat:zmod:4:2", 200),  # another base ring
        ("target", "mat:zmod:2:3", 1),  # another size
        ("point", "mat:zmod:2:3", 300),
    ],
)
def test_witness_search_refuses_elements_of_another_ring(m2z2, units2, role, spec, index):
    # the index of an element of another ring packs into a wrong system
    e12, other = units2[(1, 2)], parse_ring_spec(spec).element(index)
    with pytest.raises(ShapeMismatchError):
        witness_search(m2z2, [(other, e12) if role == "point" else (e12, other)])


def test_adversarial_oracle_refuses_a_hidden_element_of_another_ring(m2z2, units2):
    oracle = adversarial_oracle(matrix_ring(zmod(4), 2).element(1), m2z2)
    for _ in range(2):
        with pytest.raises(ShapeMismatchError):
            oracle.select(units2[(1, 2)], units2[(2, 1)])


@pytest.mark.parametrize(
    "spec", ["mat:zmod:2:2", "mat:zmod:4:2", "mat:zmod:2:3", "mat:poly:2:2:2", "mat:mat:zmod:2:2:2"]
)
def test_structure_table_matches_full_build(spec):
    # reference: all N^2 commutators [E_k, E_l], none mirrored
    carrier = parse_ring_spec(spec)
    coords = _coordinates(carrier)
    m, size, row_bits = coords.m, coords.size, coords.row_bits
    basis = [carrier.element(m ** (size - 1 - k)) for k in range(size)]
    full = [
        sum(
            coords.pack(commutator(ek, el)) << ((size - 1 - k) * row_bits)
            for k, ek in enumerate(basis)
        )
        for el in basis
    ]
    assert coords.table == full


_CACHE_CARRIERS = ["mat:zmod:2:2", "mat:zmod:3:2", "mat:zmod:4:2", "mat:poly:2:2:2"]


def _cache_queries(carrier, rng):
    """Constraint lists over M2 carriers that share their point tuples:
    for each point tuple, solvable targets [a, x] for two elements a and
    unsolvable seeded ones.  Points are drawn from the first 16 canonical
    indices, which every carrier has, so the same index tuples recur on
    every carrier; each pair of distinct points is also asked in the
    other order."""
    card = carrier.cardinality
    queries = []
    for _ in range(6):
        x, y = (carrier.element(i) for i in rng.sample(range(16), 2))
        for points in ((x,), (x, y), (y, x)):
            a, b = (carrier.element(rng.randrange(card)) for _ in range(2))
            queries.append([(p, commutator(a, p)) for p in points])
            queries.append([(p, commutator(b, p)) for p in points])
            queries.append([(p, carrier.element(rng.randrange(card))) for p in points])
    return queries


def _search_through_the_cache(carrier, constraints):
    """witness_search, after checking that the cache serves its points the
    form a fresh elimination builds (a form served for other points would
    be caught here, before the search reduces targets through it).  The
    search keys its form on the point indices in canonical order."""
    coords = _coordinates(carrier)
    points = tuple(sorted(carrier.index(x) for x, _ in constraints))
    assert _echelon(coords, points) == coords.echelon(points), (carrier.spec, points)
    return witness_search(carrier, constraints)


def test_witness_search_cold_and_warm_cache_match_scan():
    carriers = [parse_ring_spec(spec) for spec in _CACHE_CARRIERS]
    rng = random.Random("echelon-cache")
    cases = [(c, q, _scan(c, q)) for c in carriers for q in _cache_queries(c, rng)]
    assert any(want is None for _, _, want in cases)
    assert sum(want is not None for _, _, want in cases) >= len(cases) // 2
    for carrier, q, want in cases:  # cold: a fresh elimination every time
        _echelon.cache_clear()
        assert witness_search(carrier, q) == want, (carrier.spec, q)
    _echelon.cache_clear()
    for _ in range(2):  # warm: all carriers through one cache, twice
        for carrier, q, want in cases:
            assert _search_through_the_cache(carrier, q) == want, (carrier.spec, q)
    info = _echelon.cache_info()
    assert info.hits > info.misses
    assert info.misses == info.currsize


def test_reordered_points_share_one_elimination():
    rng = random.Random("reordered-points")
    for spec in _CACHE_CARRIERS:
        carrier = parse_ring_spec(spec)
        card = carrier.cardinality
        for _ in range(4):
            x, y, z = (carrier.element(i) for i in rng.sample(range(card), 3))
            a = carrier.element(rng.randrange(card))
            t = carrier.element(rng.randrange(card))
            solvable = [(p, commutator(a, p)) for p in (x, y, z)]
            for q in (solvable[:2], [(x, t), solvable[1]], solvable):
                want = _scan(carrier, q)
                _echelon.cache_clear()
                orders = [list(order) for order in permutations(q)]
                assert [witness_search(carrier, o) for o in orders] == [want] * len(orders)
                info = _echelon.cache_info()
                assert (info.misses, info.hits) == (1, len(orders) - 1)


def test_witness_search_cache_evicts_within_its_bound(m3z2):
    # more distinct point pairs than the cache holds, each solved once
    coords, zero = _coordinates(m3z2), m3z2.zero
    sets = [(i, j) for i in range(64) for j in range(i + 1, 64)][: ECHELON_CACHE_FORMS + 8]
    _echelon.cache_clear()
    for points in sets:
        x, y = map(m3z2.element, points)
        assert witness_search(m3z2, [(x, zero), (y, zero)]) == zero
    info = _echelon.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(sets), 0, ECHELON_CACHE_FORMS)
    # the least recently used form went first, so the first pair is built again
    assert _echelon(coords, sets[0]) == coords.echelon(sets[0])
    assert _echelon.cache_info().misses == len(sets) + 1


def test_delta_table_rebuild_reuses_every_elimination(m3z2, z2):
    # the corner subring <e12, e21> of M3(Z2), isomorphic to M2(Z2)
    S = generate_subring(matrix_unit(z2, 3, 1, 2), matrix_unit(z2, 3, 2, 1), m3z2)
    assert len(S.elements) == 16
    hidden = [m3z2.element(i) for i in (0o123, 0o456)]
    _echelon.cache_clear()
    counts = []
    for a in hidden:
        before = _echelon.cache_info()
        # a select-only oracle reads each value off its diagonal query
        oracle = WitnessOracle(m3z2, adversarial_oracle(a, m3z2).select)
        assert all(oracle.value(p) == commutator(a, p) for p in S.elements)
        after = _echelon.cache_info()
        counts.append((after.misses - before.misses, after.hits - before.hits))
    assert counts == [(16, 0), (0, 16)]


def test_delta_table_of_a_carried_map_runs_no_elimination(m3z2, z2):
    # an oracle made by pair_oracle carries its map, so a delta table read
    # from it evaluates the map and searches for no witness
    S = generate_subring(matrix_unit(z2, 3, 1, 2), matrix_unit(z2, 3, 2, 1), m3z2)
    _echelon.cache_clear()
    for i in (0o123, 0o456):
        a = m3z2.element(i)
        oracle = adversarial_oracle(a, m3z2)
        assert all(oracle.value(p) == commutator(a, p) for p in S.elements)
    info = _echelon.cache_info()
    assert (info.misses, info.hits) == (0, 0)


def test_adversarial_oracle_examples(units2, z2, m2z2):
    o12 = adversarial_oracle(units2[(1, 2)], m2z2)
    assert o12.select(units2[(1, 2)], units2[(1, 2)]) == zero2(z2)
    o11 = adversarial_oracle(units2[(1, 1)], m2z2)
    assert o11.select(units2[(2, 1)], units2[(1, 2)]) == units2[(2, 2)]
    assert o11.select(zero2(z2), zero2(z2)) == zero2(z2)


def _same_answers(carrier, a, pairs):
    """The adversarial oracle of ``a`` against the oracle built from the
    values of its map alone, on every ordered pair of ``pairs``."""
    hidden = adversarial_oracle(a, carrier)
    reference = pair_oracle(carrier, partial(carrier.commutator, a))
    for x, y in pairs:
        assert hidden.select(x, y) == reference.select(x, y), (carrier.spec, a, x, y)


def test_adversarial_oracle_matches_pair_oracle_exhaustive_m2z2(m2z2):
    els = m2z2.elements()
    for a in els:
        _same_answers(m2z2, a, product(els, els))


@pytest.mark.parametrize(
    "spec",
    ["mat:zmod:4:2", "mat:zmod:6:2", "mat:poly:2:2:2", "mat:zmod:2:3", "mat:mat:zmod:2:2:2"],
)
def test_adversarial_oracle_matches_pair_oracle_sampled(spec):
    # composite moduli put pivots other than 1 into the kernel rows
    carrier = parse_ring_spec(spec)
    rng = rng_for(18, f"adversarial-vs-pair:{spec}")
    card = carrier.cardinality
    for _ in range(40):
        a = carrier.element(rng.randrange(card))
        pairs = []
        for _ in range(12):
            x, y = (carrier.element(rng.randrange(card)) for _ in range(2))
            pairs += [(x, y), (y, x), (x, x)]
        _same_answers(carrier, a, pairs)


def test_adversarial_oracle_refuses_at_the_first_select():
    # built without error; witness search refuses the carrier at each
    # select (the commutator stub lets an oracle that evaluates its map
    # reach that refusal too)
    class Custom(Ring):
        spec = "custom"
        cardinality = 2
        commutative_declared = True
        commutator = staticmethod(lambda a, x: 0)

    # a carrier over the coordinate cap is refused before any oracle
    with pytest.raises(CarrierTooLargeError):
        MatrixRing(zmod(2), 9)
    oracle = adversarial_oracle(1, Custom())
    for _ in range(2):
        with pytest.raises(PreconditionError):
            oracle.select(0, 0)


def test_adversarial_oracle_cache_traffic_matches_pair_oracle(m3z2):
    rng = rng_for(18, "adversarial-cache-traffic")
    els = m3z2.elements()
    a = els[rng.randrange(len(els))]
    points = [els[rng.randrange(len(els))] for _ in range(6)]
    queries = [(x, y) for x in points for y in points] * 2
    counts = []
    for oracle in (adversarial_oracle(a, m3z2), pair_oracle(m3z2, partial(commutator, a))):
        _echelon.cache_clear()
        answers = [oracle.select(x, y) for x, y in queries]
        info = _echelon.cache_info()
        counts.append((answers, info.misses, info.hits))
    assert counts[0] == counts[1]
    assert counts[0][1:] == (21, 15)  # 6 + 15 point sets; (y, x) reuses (x, y)


@pytest.mark.parametrize("mod", [2, 3])
def test_adversarial_oracle_consistent_and_induces_inner(mod):
    carrier = matrix_ring(zmod(mod), 2)
    els = carrier.elements()
    for a in els:
        oracle = adversarial_oracle(a, carrier)
        assert maps_equal(oracle.value, inner_derivation(a, carrier).evaluate, els)


def _assert_consistent(oracle, xs):
    """Each answer implements the oracle's induced map at both points of its pair."""
    for x, y in product(xs, xs):
        w = oracle.select(x, y)
        assert commutator(w, x) == oracle.value(x) and commutator(w, y) == oracle.value(y)


def test_adversarial_oracle_full_consistency_sweep_z2(m2z2):
    els = m2z2.elements()
    for a in els:
        _assert_consistent(adversarial_oracle(a, m2z2), els)


def test_adversarial_oracle_full_consistency_sweep_z3(m2z3):
    els = m2z3.elements()
    for a in els[::9]:  # every ninth witness; each sweep runs 81^2 queries
        _assert_consistent(adversarial_oracle(a, m2z3), els)


def test_pair_oracle_raises_where_the_map_is_not_two_local(m2z2, units2):
    # the identity map has a witness at 0 but none at e11 ([b, e11] is
    # never e11); both argument orders of a pair through e11 raise
    oracle = pair_oracle(m2z2, lambda x: x)
    zero = m2z2.zero
    assert oracle.select(zero, zero) == zero
    with pytest.raises(InconsistentOracleError):
        oracle.select(units2[(1, 2)], units2[(1, 1)])
    with pytest.raises(InconsistentOracleError):
        oracle.select(units2[(1, 1)], units2[(1, 2)])


def test_pair_oracle_evaluates_each_point_once(m2z2, units2):
    a, x, y = units2[(1, 2)], units2[(1, 1)], units2[(2, 1)]
    calls = []

    def evaluate(v):
        calls.append(v)
        return commutator(a, v)

    oracle = pair_oracle(m2z2, evaluate)
    w = oracle.select(x, x)
    assert oracle.select(x, y) == oracle.select(y, x)
    assert oracle.value(x) == commutator(w, x) == commutator(a, x)
    assert sorted(calls, key=m2z2.index) == sorted([x, y], key=m2z2.index)


def test_check_two_local_stops_at_first_failing_pair(m2z2, units2):
    # adding x to [e12, x] at two elements of trace 1 leaves no witness
    # there (a commutator has trace 0); the first failing pair pairs the
    # first domain element with the earlier fault in domain order
    a = units2[(1, 2)]
    faults = (m2z2.element(5), m2z2.element(12))
    domain = verification_domain(m2z2)
    assert domain.index(faults[0]) < domain.index(faults[1])

    def evaluate(x):
        return commutator(a, x) + x if x in faults else commutator(a, x)

    report = check_two_local(DerivationMap(m2z2, evaluate, domain))
    first = domain[0]
    assert report.failures == [
        Failure(
            (first, faults[0]), (evaluate(first), evaluate(faults[0])), None, "no common witness"
        )
    ]
    assert report.checked == domain.index(faults[0]) + 1


def test_consistent_oracle_maps_zero_to_zero(m2z2, units2, z2):
    for a in (units2[(1, 2)], units2[(1, 1)], identity_matrix(z2, 2)):
        oracle = adversarial_oracle(a, m2z2)
        assert oracle.value(zero2(z2)) == zero2(z2)


def test_check_two_local_inner_passes(m2z2, units2):
    report = check_two_local(inner_derivation(units2[(1, 2)], m2z2))
    assert report.passed


def test_check_two_local_rejects_identity(m2z2, units2):
    ident = DerivationMap(m2z2, lambda x: x, verification_domain(m2z2))
    report = check_two_local(ident)
    assert not report.passed
    assert report.failures[0].inputs == (units2[(1, 1)], units2[(1, 1)])


def test_check_two_local_zero_map(m2z2, z2):
    zmap = DerivationMap(m2z2, lambda x: zero2(z2), verification_domain(m2z2))
    report = check_two_local(zmap)
    assert report.passed


def test_check_two_local_every_inner(m2z2):
    for a in m2z2.elements():
        assert check_two_local(inner_derivation(a, m2z2)).passed


def test_check_two_local_accepts_non_additive_input(m2z2):
    # the definition does not require additivity, so a non-additive map is
    # a legal input; the squaring map simply fails the witness search
    squaring = DerivationMap(m2z2, lambda x: x * x, verification_domain(m2z2))
    report = check_two_local(squaring)
    assert not report.passed
    assert report.failures[0].note == "no common witness"


_CONSISTENCY_CARRIERS = [
    "mat:zmod:2:2",
    "mat:zmod:3:2",
    "mat:zmod:4:2",
    "mat:zmod:6:2",
    "mat:poly:2:2:2",
]


def _consistent(carrier, constraints):
    """The consistency test on constraints in the form witness_search takes."""
    return _coordinates(carrier).consistent(list(dict.fromkeys(constraints)))


@pytest.mark.parametrize("spec", _CONSISTENCY_CARRIERS)
def test_consistency_matches_witness_search_at_every_point(spec):
    carrier = parse_ring_spec(spec)
    card = carrier.cardinality
    rng = random.Random(f"consistency-points:{spec}")
    verdicts = set()
    for x in carrier.elements():
        a = carrier.element(rng.randrange(card))
        for t in (commutator(a, x), carrier.element(rng.randrange(card))):
            want = witness_search(carrier, [(x, t)]) is not None
            assert _consistent(carrier, [(x, t)]) == want, (x, t)
            verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("spec", _CONSISTENCY_CARRIERS)
def test_consistency_matches_witness_search_on_two_point_sets(spec):
    carrier = parse_ring_spec(spec)
    card = carrier.cardinality
    rng = random.Random(f"consistency-pairs:{spec}")
    verdicts = []
    for trial in range(120):
        x, y, a, b = (carrier.element(rng.randrange(card)) for _ in range(4))
        if trial % 3 == 0:  # one element at both points: always solvable
            constraints = [(x, commutator(a, x)), (y, commutator(a, y))]
        elif trial % 3 == 1:  # each point solvable alone, by different elements
            constraints = [(x, commutator(a, x)), (y, commutator(b, y))]
        else:
            constraints = [(x, commutator(a, x)), (y, carrier.element(rng.randrange(card)))]
        want = witness_search(carrier, constraints) is not None
        assert _consistent(carrier, constraints) == want, constraints
        verdicts.append(want)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 40


def _two_local_reference(
    D, pair_cap=TWO_LOCAL_PAIR_CAP, pair_samples=TWO_LOCAL_PAIR_SAMPLE, seed=0
):
    """(checked, failures) of check_two_local by a witness search of every
    pair of its stream, with no pair skipped and nothing reused."""
    pairs, _ = _pair_stream(D.carrier, D.domain, pair_cap, pair_samples, seed, "two-local")
    checked = 0
    for x, y in pairs:
        checked += 1
        fx, fy = D.evaluate(x), D.evaluate(y)
        if witness_search(D.carrier, [(x, fx), (y, fy)]) is None:
            return checked, [Failure((x, y), (fx, fy), None, "no common witness")]
    return checked, []


def test_check_two_local_report_matches_a_search_of_every_pair(m2z2, units2):
    a = units2[(1, 2)]
    faults = (m2z2.element(5), m2z2.element(12))
    domain = verification_domain(m2z2)
    zero = m2z2.zero

    def mid_stream(x):
        return commutator(a, x) + x if x in faults else commutator(a, x)

    def split(x):  # [e21, x] at trace 1, else [e12, x]: inner at each point
        return commutator(units2[(2, 1)] if x.entry(1, 1) != x.entry(2, 2) else a, x)

    maps = [mid_stream, split, lambda x: x, lambda x: x * x, lambda x: zero]
    maps += [partial(commutator, m2z2.element(i)) for i in (0, 6, 9, 15)]
    cases = [(DerivationMap(m2z2, f, domain), {}) for f in maps]
    # sampled streams: the 16 units pairs, then 300 draws with many repeats
    cases += [(DerivationMap(m2z2, f, domain), {"pair_cap": 0, "pair_samples": 300}) for f in maps]
    m3z2 = matrix_ring(zmod(2), 3)
    hidden = m3z2.element(0o321)
    odd = {m3z2.element(i) for i in range(5, 512, 37)}  # each breaks (x, x) alone

    def late_fault(x):
        return commutator(hidden, x) + (m3z2.one if x in odd else m3z2.zero)

    for f in (partial(commutator, hidden), late_fault):
        cases.append((DerivationMap(m3z2, f, m3z2.elements()), {"pair_samples": 400}))
    # carried witnesses: the true one, one that misses only at later points
    # (late_fault), one of another ring, and an object that is no Matrix
    for f, witness in (
        (partial(commutator, hidden), hidden),
        (late_fault, hidden),
        (partial(commutator, hidden), matrix_ring(zmod(3), 3).element(0o321)),
        (late_fault, "not a matrix"),
    ):
        D = DerivationMap(m3z2, f, m3z2.elements(), witness=witness)
        cases.append((D, {"pair_samples": 400}))
    for f in (mid_stream, partial(commutator, a)):  # a misses only at the faults
        cases.append((DerivationMap(m2z2, f, domain, witness=a), {}))
    late = domain[-3]

    def fault_then_raise(x):  # raises only at a point after the failing pair
        if x == late:
            raise ZeroDivisionError("a point after the failing pair")
        return mid_stream(x)

    cases.append((DerivationMap(m2z2, fault_then_raise, domain), {}))
    # witnesses that settle some pairs and leave the others to the scan:
    # element 4 implements the map at its first two points only, and the
    # true witness of an inner map whose first points are central
    pairwise = _pairwise_but_not_common(m2z2)
    cases.append((pairwise, {}))
    cases.append((replace(pairwise, witness=m2z2.element(4)), {}))
    led = _led_by_central_points(m3z2, hidden)
    cases += [(led, {}), (replace(led, witness=hidden), {})]
    failing = 0
    for D, budget in cases:
        report = check_two_local(D, **budget)
        assert (report.checked, report.failures) == _two_local_reference(D, **budget)
        failing += not report.passed
    assert failing >= 6


def _pairwise_but_not_common(m2z2):
    """A map on three points of M2(Z2), [a, x] with a different a at each,
    that has a witness at every pair of points but none at all three."""
    points = [m2z2.element(i) for i in (2, 3, 1)]
    values = {x: commutator(m2z2.element(i), x) for x, i in zip(points, (4, 13, 6))}
    for x, y in product(points, points):
        assert witness_search(m2z2, [(x, values[x]), (y, values[y])]) is not None
    assert witness_search(m2z2, list(values.items())) is None
    return DerivationMap(m2z2, values.__getitem__, tuple(points))


def _led_by_central_points(m3z2, hidden):
    """An inner map whose first two points, 0 and 1, commute with every
    element, so that any element implements the map at both of them."""
    rng = random.Random("two-local-repins")
    draws = [m3z2.element(rng.randrange(m3z2.cardinality)) for _ in range(30)]
    domain = tuple(dict.fromkeys([m3z2.zero, m3z2.one, *draws]))
    return DerivationMap(m3z2, partial(commutator, hidden), domain)


def _counting_eliminations(monkeypatch) -> list:
    """The lane counts of every _Coordinates._eliminate call from now on."""
    eliminate, runs = _Coordinates._eliminate, []

    def counted(self, rows, lanes):
        runs.append(lanes)
        return eliminate(self, rows, lanes)

    monkeypatch.setattr(_Coordinates, "_eliminate", counted)
    return runs


def test_check_two_local_falls_back_to_the_scan_without_a_common_witness(monkeypatch, m2z2):
    D = _pairwise_but_not_common(m2z2)
    runs = _counting_eliminations(monkeypatch)
    report = check_two_local(D)
    assert report.passed and report.checked == 9
    assert (report.checked, report.failures) == _two_local_reference(D)
    # the consistency tests of (x, x), then (x, y), (x, z) and (y, z), each
    # over 4 lanes a point; the others are proved by passed pairs
    assert runs == [4, 8, 8, 8]


def test_check_two_local_passes_a_bare_inner_map_and_leaves_the_cache(m3z2):
    D = _led_by_central_points(m3z2, m3z2.element(0o321))
    _coordinates(m3z2)
    before = _echelon.cache_info()
    report = check_two_local(D)
    assert report.passed and report.checked == len(D.domain) ** 2
    assert _echelon.cache_info() == before  # the consistency tests are uncached


@pytest.mark.parametrize("spec", ["mat:zmod:2:2", "mat:zmod:4:2"])
def test_check_two_local_passes_every_carried_inner_map_without_elimination(monkeypatch, spec):
    # the full default stream of every inner map that carries its element
    carrier = parse_ring_spec(spec)
    runs = _counting_eliminations(monkeypatch)
    for a in carrier.elements():
        assert check_two_local(inner_derivation(a, carrier)).passed
    assert runs == []


@pytest.mark.parametrize("n", [3, 4])
def test_check_two_local_rejects_the_identity_at_its_first_pair(n):
    # the negative control: (e11, e11) has no witness, as [b, e11] has a
    # zero diagonal; the check reads no further and evaluates the map once
    carrier = matrix_ring(zmod(2), n)
    e11 = matrix_unit(zmod(2), n, 1, 1)
    seen = []

    def identity(x):
        seen.append(x)
        return x

    report = check_two_local(DerivationMap(carrier, identity, verification_domain(carrier)))
    assert (report.checked, report.failures) == (
        1,
        [Failure((e11, e11), (e11, e11), None, "no common witness")],
    )
    assert seen == [e11]


def test_check_two_local_reports_a_diagonal_failure_before_a_later_raise(m2z2, units2):
    # (e11, e11) fails, and the map raises at e12, the second distinct
    # point, which the scan never evaluates
    e11, e12 = units2[(1, 1)], units2[(1, 2)]
    domain = verification_domain(m2z2)
    assert domain[:2] == (e11, e12)

    def evaluate(x):
        if x == e12:
            raise ZeroDivisionError("second point")
        return x

    report = check_two_local(DerivationMap(m2z2, evaluate, domain))
    assert report.checked == 1
    assert report.failures == [Failure((e11, e11), (e11, e11), None, "no common witness")]


@pytest.mark.parametrize("late", ["raise", "foreign"])
def test_check_two_local_raises_at_a_late_point_as_the_scan_does(m2z2, late):
    a, domain = m2z2.element(6), verification_domain(m2z2)
    late_point = domain[-3]

    def evaluate(x):
        if x != late_point:
            return commutator(a, x)
        if late == "foreign":
            return zero_matrix(zmod(3), 2)
        raise ZeroDivisionError("late point")

    error = ShapeMismatchError if late == "foreign" else ZeroDivisionError
    for witness in (None, a):  # a implements the map at every other point
        D = DerivationMap(m2z2, evaluate, domain, witness=witness)
        with pytest.raises(error) as want:
            _two_local_reference(D)
        with pytest.raises(error) as got:
            check_two_local(D)
        assert str(got.value) == str(want.value)


def test_check_two_local_on_the_item_shape_runs_one_elimination(monkeypatch, m3z2):
    # the witness-search item checks the pairs (x, x), (x, y), (y, x), (y, y)
    rng = random.Random("two-local-item")
    a, x, y = (m3z2.element(rng.randrange(m3z2.cardinality)) for _ in range(3))
    assert x != y
    runs = _counting_eliminations(monkeypatch)
    _coordinates(m3z2)
    before = _echelon.cache_info()
    # without a witness, one consistency test for (x, x) and one for
    # (x, y), which proves the other two; none when the map carries a
    # witness that implements it at both points
    for witness, want in ((None, [9, 18]), (a, [])):
        del runs[:]
        D = DerivationMap(m3z2, inner_derivation(a, m3z2).evaluate, (x, y), witness=witness)
        report = check_two_local(D, pair_cap=4)
        assert report.passed and report.checked == 4
        assert runs == want
        assert _echelon.cache_info() == before


def test_maps_equal_first_difference(units2, m2z2):
    same = maps_equal(
        inner_derivation(units2[(1, 1)], m2z2).evaluate,
        inner_derivation(units2[(2, 2)], m2z2).evaluate,
        m2z2.elements(),
    )
    assert same.passed
    f, g = inner_derivation(units2[(1, 2)], m2z2), inner_derivation(units2[(2, 1)], m2z2)
    diff = maps_equal(f.evaluate, g.evaluate, verification_domain(m2z2))
    assert not diff.passed
    e11 = units2[(1, 1)]
    assert diff.failures[0].inputs == (e11,)
    assert len(diff.failures) == 1
    assert (diff.failures[0].expected, diff.failures[0].got) == (g.evaluate(e11), f.evaluate(e11))
    d = inner_derivation(units2[(1, 2)], m2z2)
    assert maps_equal(d.evaluate, d.evaluate, verification_domain(m2z2))


def _recorded(cases, reads):
    """The cases one at a time, each appended to ``reads`` as it is read."""
    for case in cases:
        reads.append(case)
        yield case


def _fails_at(k):
    """A check that fails exactly on the case (k,)."""
    return lambda i: Failure((i,), "pass", "fail", "case") if i == k else None


def test_first_failure_on_no_cases_passes_with_nothing_checked():
    report = deriv._first_failure(iter(()), _fails_at(0))
    assert (report.checked, report.failures, report.passed) == (0, [], True)


def test_first_failure_on_passing_cases_checks_them_all():
    reads = []
    report = deriv._first_failure(_recorded([(i,) for i in range(1, 8)], reads), _fails_at(0))
    assert report.passed and report.checked == 7 and len(reads) == 7


@pytest.mark.parametrize("k", [1, 4, 7])
def test_first_failure_stops_at_the_kth_case_and_reads_no_further(k):
    reads = []
    report = deriv._first_failure(_recorded([(i,) for i in range(1, 8)], reads), _fails_at(k))
    assert report.checked == k
    assert report.failures == [Failure((k,), "pass", "fail", "case")]
    assert reads == [(i,) for i in range(1, k + 1)]


@pytest.mark.parametrize("failing", [0, 3])
def test_report_truth_is_its_verdict(failing):
    report = deriv._first_failure([(i,) for i in range(1, 5)], _fails_at(failing))
    assert bool(report) is report.passed


def test_verification_domain_order(m2z2, units2, z2):
    dom = verification_domain(m2z2)
    assert dom[0] == units2[(1, 1)]
    assert dom[1] == units2[(1, 2)]
    assert dom[2] == units2[(2, 1)]
    assert dom[3] == units2[(2, 2)]
    assert len(dom) == 16
    assert len(set(dom)) == 16
    dom3 = verification_domain(matrix_ring(z2, 3))
    assert dom3[9] == staircase(z2, 3)


def test_sampled_domains_are_lead_then_distinct_draws(z3):
    # M3(Z3), 19,683 elements, is above FULL_DOMAIN_CAP, and M4(Z3) above
    # ELEMENT_CAP; 10,000 draws from M3(Z3) repeat many elements
    m3z3, m4z3 = matrix_ring(z3, 3), matrix_ring(z3, 4)
    for carrier in (m3z3, m4z3):
        rng = rng_for(0, f"domain:{carrier.spec}")
        want, seen = [], set()
        for v in [*carrier.units(), staircase(z3, carrier.n)] + [
            carrier.element(rng.randrange(carrier.cardinality)) for _ in range(10_000)
        ]:
            if v not in seen:
                seen.add(v)
                want.append(v)
        assert verification_domain(carrier) == tuple(want)
    assert len(verification_domain(m3z3)) < 10_010
    # verification_elements draws the same stream
    assert verification_elements(m4z3) == verification_domain(m4z3)


# Differential tests of check_derivation against the ordered pair scan,
# kept only here as the reference for its certificate and its row-code
# scan.  The budgets give the first six carriers a stream of at least |S|
# pairs, so the certificate runs; M2(M2(Z2)) sits exactly at |S| = 16 +
# 65,520 pairs.  M4(Z2) is there because its stream of 656 pairs is too
# short for the certificate: it takes the row-code pair scan, the branch
# of extend-m4.  M2(M3(Z2)) has no row table (512^2 rows), so it takes the
# operator scan; its unit pairs (e11, e11) sum to zero, which lets the
# map perturbed at zero fail additivity on so short a stream.

DERIV_CARRIERS = {
    "M2Z2": ("mat:zmod:2:2", {}),
    "M2Z3": ("mat:zmod:3:2", {}),
    "M2Z4": ("mat:zmod:4:2", dict(pair_cap=0, pair_samples=300)),
    "M3Z2": ("mat:zmod:2:3", dict(pair_cap=0, pair_samples=600, seed=5)),
    "M2Z2t2": ("mat:poly:2:2:2", dict(pair_cap=0, pair_samples=300, seed=3)),
    "M2M2Z2": ("mat:mat:zmod:2:2:2", dict(pair_cap=0, pair_samples=65_520)),
    "M4Z2": ("mat:zmod:2:4", dict(pair_cap=0, pair_samples=400)),
    "M2M3Z2": ("mat:mat:zmod:2:3:2", dict(pair_cap=0, pair_samples=300)),
}


def _scan_reference(D, pair_cap=262_144, pair_samples=100_000, seed=0):
    carrier, evaluate, domain = D.carrier, D.evaluate, D.domain
    add, mul = carrier.add, carrier.mul
    if len(domain) * len(domain) <= pair_cap:
        pairs, report = product(domain, domain), VerificationReport()
    else:
        rng = rng_for(seed, f"pairs:{carrier.spec}")
        pick, card, units = carrier.element, carrier.cardinality, carrier.units()
        sampled = [
            (pick(rng.randrange(card)), pick(rng.randrange(card))) for _ in range(pair_samples)
        ]
        pairs, report = list(product(units, units)) + sampled, VerificationReport()
    for x, y in pairs:
        dx, dy = evaluate(x), evaluate(y)
        report.checked += 1
        if evaluate(add(x, y)) != add(dx, dy):
            report.failures.append(Failure((x, y), add(dx, dy), evaluate(add(x, y)), "additivity"))
        elif evaluate(mul(x, y)) != add(mul(dx, y), mul(x, dy)):
            want = add(mul(dx, y), mul(x, dy))
            report.failures.append(Failure((x, y), want, evaluate(mul(x, y)), "leibniz"))
        if report.failures:
            break
    return report


def _deriv_outcome(report):
    failures = [(f.inputs, f.expected, f.got, f.note) for f in report.failures]
    return report.passed, report.checked, failures


def _deriv_result(check, D, budget):
    """The outcome of ``check(D, **budget)``, or the exception it raised."""
    try:
        return _deriv_outcome(check(D, **budget))
    except ShapeMismatchError as exc:
        return "raised", str(exc)


class _Sub(Matrix):
    """Matrix values of another class: equal to the carrier's matrices,
    but off its row table."""

    __slots__ = ()


def _deriv_maps(carrier, rng):
    """(name, evaluate) cases: an inner map, the identity, the inner map
    perturbed at one element, at zero and at the all-ones element (every
    coordinate 1, off the walk of a tree missing any one coordinate),
    additive maps that break Leibniz: ad_a plus right multiplication by c,
    ad_a plus a coordinate swap, and ad_a plus x -> e11 x e22, whose
    Leibniz defect vanishes on every pair (E_k, E_k) but not on
    (e12, e21), and the inner map with its values as :class:`_Sub`."""
    add, mul, sub = carrier.add, carrier.mul, carrier.sub
    card, index, element = carrier.cardinality, carrier.index, carrier.element
    m = _coordinates(carrier).m
    a = element(rng.randrange(card))
    c = element(1 + rng.randrange(card - 1))
    bump = element(1 + rng.randrange(card - 1))

    def inner(x):
        return sub(mul(a, x), mul(x, a))

    def perturbed(at):
        return lambda x: add(inner(x), bump) if x == at else inner(x)

    def swap(x):
        # exchange the two lowest base-m digits of the index: Z_m-linear
        i = index(x)
        lo, mid = i % m, i // m % m
        return element(i - lo - mid * m + mid + lo * m)

    u = element(1 + rng.randrange(card - 1))
    ones = element((card - 1) // (m - 1))
    units = carrier.units()
    e11, e22 = units[0], units[carrier.n + 1]
    return [
        ("inner", inner),
        ("identity", lambda x: x),
        ("perturbed", perturbed(u)),
        ("perturbed at zero", perturbed(carrier.zero)),
        ("perturbed at all-ones", perturbed(ones)),
        ("additive, right multiplication", lambda x: add(inner(x), mul(x, c))),
        ("additive, coordinate swap", lambda x: add(inner(x), swap(x))),
        ("additive, corner projection", lambda x: add(inner(x), mul(mul(e11, x), e22))),
        ("inner, subclass values", lambda x: _Sub(carrier.base, inner(x).rows)),
    ]


@pytest.mark.parametrize("label", sorted(DERIV_CARRIERS))
def test_check_derivation_matches_pair_scan(label):
    spec, budget = DERIV_CARRIERS[label]
    carrier = parse_ring_spec(spec)
    rng = rng_for(13, f"deriv-diff:{label}")
    verdicts = set()
    maps = _deriv_maps(carrier, rng)
    for name, evaluate in maps:
        D = DerivationMap(carrier, evaluate, verification_domain(carrier))
        want = _deriv_outcome(_scan_reference(D, **budget))
        assert _deriv_outcome(check_derivation(D, **budget)) == want, name
        verdicts.add(want[2][0][3] if want[2] else "pass")
    assert verdicts == {"pass", "additivity", "leibniz"}
    # values in M_{n+1} of the same base, off the carrier's row table: the
    # reference raises ShapeMismatchError when its Leibniz side multiplies
    # across shapes, and the checker must raise the same error
    inner = maps[0][1]
    wide = DerivationMap(
        carrier, lambda x: corner_embed(inner(x), carrier.n + 1), verification_domain(carrier)
    )
    want = _deriv_result(_scan_reference, wide, budget)
    assert want[0] == "raised"
    assert _deriv_result(check_derivation, wide, budget) == want
    # a domain led by a Matrix-subclass copy of e11, off the row table: a
    # stream of the whole domain meets it in its first pair, where the
    # identity fails Leibniz, and the row-code scan starts over
    domain = verification_domain(carrier)
    lead = DerivationMap(carrier, lambda x: x, (_Sub(carrier.base, domain[0].rows), *domain[1:]))
    want = _deriv_result(_scan_reference, lead, budget)
    assert want[2][0][3] == "leibniz"
    assert _deriv_result(check_derivation, lead, budget) == want


@pytest.mark.parametrize("label", sorted(set(DERIV_CARRIERS) - {"M2M2Z2"}))
def test_check_derivation_starts_over_when_a_late_value_leaves_the_table(label):
    # the inner map with a value in M_{n+1} at the last point the ordered
    # scan meets: a checker on row codes meets it late, in the walk of the
    # certificate or (M4(Z2)) in the last of its 656 pairs, and starts over
    # on the operators, evaluating the map afresh.  M2(M2(Z2)) is left out
    # for time: its 65,536-pair reference scan runs twice here.
    spec, budget = DERIV_CARRIERS[label]
    carrier = parse_ring_spec(spec)
    inner = _deriv_maps(carrier, rng_for(13, f"deriv-diff:{label}"))[0][1]
    domain = verification_domain(carrier)
    met = {}

    def spy(x):
        met.setdefault(x, len(met))
        return inner(x)

    _scan_reference(DerivationMap(carrier, spy, domain), **budget)
    late = max(met, key=met.get)
    calls = []

    def leaves(x):
        calls.append(x)
        return corner_embed(inner(x), carrier.n + 1) if x == late else inner(x)

    D = DerivationMap(carrier, leaves, domain)
    want = _deriv_result(_scan_reference, D, budget)
    assert want[0] is not True
    calls.clear()
    assert _deriv_result(check_derivation, D, budget) == want
    assert (len(calls) > len(set(calls))) is (carrier.row_codes is not None)


@pytest.mark.parametrize("label", ["M2Z4", "M3Z2", "M2Z2t2"])
def test_check_derivation_replays_a_stream_that_misses_the_fault(label):
    # perturb the inner map at an element the sampled stream never
    # evaluates: the certificate fails, and the replayed scan reads the
    # whole stream and passes, as the scan alone would
    spec, budget = DERIV_CARRIERS[label]
    carrier = parse_ring_spec(spec)
    inner = _deriv_maps(carrier, rng_for(13, f"deriv-diff:{label}"))[0][1]
    seen = set()

    def spy(x):
        seen.add(x)
        return inner(x)

    domain = verification_domain(carrier)
    _scan_reference(DerivationMap(carrier, spy, domain), **budget)
    at = next(x for x in carrier.elements() if x not in seen)

    def perturbed(x):
        return carrier.add(inner(x), carrier.one) if x == at else inner(x)

    D = DerivationMap(carrier, perturbed, domain)
    want = _deriv_outcome(_scan_reference(D, **budget))
    length = len(carrier.units()) ** 2 + budget["pair_samples"]
    assert want == (True, length, [])
    assert _deriv_outcome(check_derivation(D, **budget)) == want


def test_check_derivation_evaluation_budget():
    # M4(Z2), the extend-m4 shape: a stream of 256 unit pairs and 400
    # samples is far shorter than the 65,536 elements, so the certificate
    # must not run; at 100,000 samples it does, evaluating D exactly once
    # on every element
    z2 = zmod(2)
    m4 = matrix_ring(z2, 4)
    a = staircase(z2, 4)
    table = {x: commutator(a, x) for x in m4.elements()}
    calls = []

    def evaluate(x):
        calls.append(x)
        return table[x]

    D = DerivationMap(m4, evaluate, verification_domain(m4))
    rep = check_derivation(D, pair_cap=0, pair_samples=400)
    assert rep.passed and rep.checked == 656
    assert len(calls) == len(set(calls))
    calls.clear()
    rep = check_derivation(D, pair_cap=0, pair_samples=100_000, seed=2)
    assert rep.passed and rep.checked == 256 + 100_000
    assert len(calls) == len(set(calls)) == m4.cardinality


# (checked, failures) of check_derivation for table-backed maps on the
# listed M4(Z2), recorded while the row-code memo still evaluated maps at
# fresh matrices: on the certified default stream, then on the extend-m4
# stream of 256 unit pairs and 400 samples.  A failure reads (input
# indices, expected index, got index, note).  In the off-table row the
# foreign value shares its index with the sum it fails to equal: a ring is
# equal only to itself.
LISTED_M4_REPORTS = {
    "inner": ((100_256, []), (656, [])),
    "identity": ((1, [((32768, 32768), 0, 32768, "leibniz")]),) * 2,
    "leibniz": ((64, [((4096, 1), 53521, 49425, "leibniz")]),) * 2,
    "additivity": ((176, [((32, 1), 12940, 45708, "additivity")]),) * 2,
    "off-table": ((176, [((32, 1), 12940, 12940, "additivity")]),) * 2,
}


@pytest.mark.parametrize("name", sorted(LISTED_M4_REPORTS))
def test_check_derivation_on_a_listed_carrier_meets_only_listed_objects(name):
    m4 = matrix_ring(zmod(2), 4)
    listed, index = m4.elements(), m4.index
    units = m4.units()
    a, e11, e44 = m4.element(48813), units[0], units[15]
    z = units[10] + e44  # e33 + e44, first met as the sum of the 176th pair
    foreign = Zmod(2)
    rules = {
        "inner": lambda x: commutator(a, x),
        "identity": lambda x: x,
        # additive; its Leibniz defect first shows at (e14, e44), pair 64
        "leibniz": lambda x: commutator(a, x) + e44 * x * e44,
        "additivity": lambda x: commutator(a, x) + (e11 if x == z else m4.zero),
        # a value over another Z2 object leaves the row table, and the check
        # starts over on the operators; they meet it at the first pair whose
        # sum is z and find it unequal to the sum, though its index is the same
        "off-table": lambda x: (
            Matrix(foreign, commutator(a, x).rows) if x == z else commutator(a, x)
        ),
    }
    table = {x: rules[name](x) for x in listed}
    calls = []

    def evaluate(x):
        calls.append(x)
        return table[x]

    D = DerivationMap(m4, evaluate, verification_domain(m4))
    streams = ({}, {"pair_cap": 0, "pair_samples": 400})
    for kwargs, want in zip(streams, LISTED_M4_REPORTS[name]):
        calls.clear()
        rep = check_derivation(D, **kwargs)
        failures = [
            (tuple(map(index, f.inputs)), index(f.expected), index(f.got), f.note)
            for f in rep.failures
        ]
        assert (rep.checked, failures) == want, kwargs
        # the operators' restart evaluates D at sums and products it builds
        assert all(x is listed[index(x)] for x in calls) is (name != "off-table"), kwargs
