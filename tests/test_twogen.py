from itertools import product

import pytest

from adlocal import (
    ClosureBudgetError,
    PreconditionError,
    ShapeMismatchError,
    adversarial_oracle,
    check_inner_on_subring,
    commutator,
    corner_embed,
    generate_subring,
    matrix_ring,
    matrix_unit,
    polyquot,
    witness_search,
    zero_matrix,
    zmod,
)
from adlocal import twogen
from adlocal.deriv import Failure, VerificationReport
from adlocal.matrix import Matrix, _module_rank
from adlocal.sampling import rng_for


def test_closure_of_offdiagonal_units_is_everything(m2z2, units2):
    S = generate_subring(units2[(1, 2)], units2[(2, 1)], m2z2)
    assert len(S.elements) == 16
    assert set(S.elements) == set(m2z2.elements())


def test_closure_budget_is_element_cap(monkeypatch, m2z2, units2):
    # <e12, e21> is all 16 elements of M2(Z2): built under a cap of 16,
    # refused under 15
    monkeypatch.setattr(twogen, "ELEMENT_CAP", 16)
    assert len(generate_subring(units2[(1, 2)], units2[(2, 1)], m2z2).elements) == 16
    monkeypatch.setattr(twogen, "ELEMENT_CAP", 15)
    with pytest.raises(ClosureBudgetError, match="more than 15 elements"):
        generate_subring(units2[(1, 2)], units2[(2, 1)], m2z2)


def test_closure_of_idempotent_and_zero(z2, m2z2, units2):
    S = generate_subring(units2[(1, 1)], zero_matrix(z2, 2), m2z2)
    assert set(S.elements) == {zero_matrix(z2, 2), units2[(1, 1)]}


def test_closure_of_zero(z2, m2z2):
    zero = zero_matrix(z2, 2)
    S = generate_subring(zero, zero, m2z2)
    assert S.elements == (zero,)


def test_closure_is_closed_and_canonical(m3z2):
    rng = rng_for(0, "closure")
    for _ in range(4):
        x = m3z2.element(rng.randrange(512))
        y = m3z2.element(rng.randrange(512))
        S = generate_subring(x, y, m3z2)
        elems = set(S.elements)
        assert x in elems and y in elems and m3z2.zero in elems
        for u in list(elems)[:40]:
            assert m3z2.neg(u) in elems
            for v in list(elems)[:40]:
                assert m3z2.add(u, v) in elems
                assert m3z2.mul(u, v) in elems
        indices = [m3z2.index(e) for e in S.elements]
        assert indices == sorted(indices)


def test_closure_idempotence(m3z2):
    # generators taken inside a closure generate a subset of it
    rng = rng_for(1, "closure-idem")
    x = m3z2.element(rng.randrange(512))
    y = m3z2.element(rng.randrange(512))
    S = generate_subring(x, y, m3z2)
    u = S.elements[len(S.elements) // 2]
    v = S.elements[len(S.elements) // 3]
    T = generate_subring(u, v, m3z2)
    assert set(T.elements) <= set(S.elements)


def test_check_inner_restriction_of_inner_map(m2z2, units2):
    S = generate_subring(units2[(1, 2)], units2[(2, 1)], m2z2)
    d = units2[(1, 1)]
    delta = {p: commutator(d, p) for p in S.elements}
    report = check_inner_on_subring(S, delta, d)
    assert report.passed


def test_check_inner_every_ambient_witness(m2z2, units2):
    S = generate_subring(units2[(1, 2)], units2[(2, 1)], m2z2)
    for d in m2z2.elements():
        delta = {p: commutator(d, p) for p in S.elements}
        assert check_inner_on_subring(S, delta, d).passed


def test_check_inner_with_adversarial_values(m2z2, units2):
    # values produced through per-element adversarial witnesses; the
    # generator-pair witness may differ from the hidden element
    e12, e21 = units2[(1, 2)], units2[(2, 1)]
    S = generate_subring(e12, e21, m2z2)
    oracle = adversarial_oracle(e12, m2z2)
    delta = {p: oracle.value(p) for p in S.elements}
    d = witness_search(m2z2, [(e12, delta[e12]), (e21, delta[e21])])
    assert d is not None
    report = check_inner_on_subring(S, delta, d)
    assert report.passed


def test_check_inner_rejects_identity_map(m2z2, units2):
    e12, e21 = units2[(1, 2)], units2[(2, 1)]
    S = generate_subring(e12, e21, m2z2)
    identity_table = {p: p for p in S.elements}
    d = witness_search(m2z2, [(e12, e12), (e21, e21)])
    assert d == units2[(2, 2)]
    report = check_inner_on_subring(S, identity_table, d)
    assert not report.passed
    # additivity holds for the identity, so the failure is a non-generator
    # element, the first one in canonical order
    assert report.failures[0].note == "not implemented by d"
    assert report.failures[0].inputs == (units2[(2, 2)],)


def test_check_inner_reports_non_additive(m2z2, units2, z2):
    e12, e21 = units2[(1, 2)], units2[(2, 1)]
    S = generate_subring(e12, e21, m2z2)
    d = units2[(1, 1)]
    table = {p: commutator(d, p) for p in S.elements}
    table[units2[(2, 2)]] = units2[(1, 2)]  # break additivity somewhere
    report = check_inner_on_subring(S, table, d)
    assert not report.passed
    assert report.failures[0].note == "not additive"


def test_check_inner_stops_at_first_unimplemented_element(m2z2, units2):
    # delta = [d, p] + tr(p) e12 is additive and agrees with [d, p] at the
    # trace-0 generators, but d fails at each of the eight elements of
    # trace 1; the report keeps only the first of them in canonical order
    e12, e21 = units2[(1, 2)], units2[(2, 1)]
    S = generate_subring(e12, e21, m2z2)
    d = units2[(1, 1)]

    def delta(p):
        shift = e12 if p.entry(1, 1) != p.entry(2, 2) else m2z2.zero
        return commutator(d, p) + shift

    faults = [p for p in S.elements if delta(p) != commutator(d, p)]
    assert len(faults) == 8
    report = check_inner_on_subring(S, {p: delta(p) for p in S.elements}, d)
    first = faults[0]
    assert report.failures == [
        Failure((first,), delta(first), commutator(d, first), "not implemented by d")
    ]
    # the |S|^2 certified additivity pairs, then the elements up to first
    assert report.checked == len(S.elements) ** 2 + S.elements.index(first) + 1


def test_check_inner_precondition(m2z2, units2):
    from adlocal import PreconditionError

    e12, e21 = units2[(1, 2)], units2[(2, 1)]
    S = generate_subring(e12, e21, m2z2)
    delta = {p: commutator(units2[(1, 1)], p) for p in S.elements}
    with pytest.raises(PreconditionError):
        check_inner_on_subring(S, delta, units2[(1, 2)])


def test_inner_map_on_closure_over_z4():
    carrier = matrix_ring(zmod(4), 2)
    rng = rng_for(3, "z4")
    x = carrier.element(rng.randrange(256))
    y = carrier.element(rng.randrange(256))
    a = carrier.element(rng.randrange(256))
    S = generate_subring(x, y, carrier)
    oracle = adversarial_oracle(a, carrier)
    delta = {p: oracle.value(p) for p in S.elements}
    d = witness_search(carrier, [(x, delta[x]), (y, delta[y])])
    assert d is not None
    assert check_inner_on_subring(S, delta, d).passed


# Differential tests against brute-force references kept only here: the
# generator-set fixpoint that re-spans every round, and the ordered scan of
# all |S|^2 additivity pairs, or of the pairs (u, g) with g a span
# generator above the pair cap.

# M3(Z7) has no row table (7^3 rows), so it takes the operator walk; its
# generators are multiples of single matrix units (see _seeded_pairs), so
# its closures have at most 7^4 elements.
DIFF_CARRIERS = {
    "M2Z2": lambda: matrix_ring(zmod(2), 2),
    "M2Z3": lambda: matrix_ring(zmod(3), 2),
    "M2Z4": lambda: matrix_ring(zmod(4), 2),
    "M3Z2": lambda: matrix_ring(zmod(2), 3),
    "M2Z2t2": lambda: matrix_ring(polyquot(2, 2), 2),
    "M3Z7": lambda: matrix_ring(zmod(7), 3),
}


def _additive_span(ambient, gens):
    span, frontier = {ambient.zero}, [ambient.zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = ambient.add(v, g)
            if w not in span:
                span.add(w)
                frontier.append(w)
    return span


def _closure_reference(x, y, ambient):
    mul = ambient.mul
    gens = [x] if y == x else [x, y]
    span = _additive_span(ambient, gens)
    while True:
        fresh = []
        seen = set(span)
        for g, h in product(gens, gens):
            p = mul(g, h)
            if p not in seen:
                seen.add(p)
                fresh.append(p)
        if not fresh:
            return tuple(sorted(span, key=ambient.index))
        gens.extend(fresh)
        span = _additive_span(ambient, gens)


def _inner_reference(S, delta, d, pair_cap=262_144):
    ambient = S.ambient
    add, mul, sub = ambient.add, ambient.mul, ambient.sub
    values = {p: delta[p] for p in S.elements}
    report = VerificationReport()
    elements = S.elements
    count = len(elements)
    # delta additive on every (u, g) is additive on all of S
    pairs = product(elements, elements if count * count <= pair_cap else S.span_generators)
    for u, v in pairs:
        report.checked += 1
        if values[add(u, v)] != add(values[u], values[v]):
            report.failures.append(
                Failure((u, v), add(values[u], values[v]), values[add(u, v)], "not additive")
            )
            return report
    report.checked = count * count
    for g in S.generators:
        if values[g] != sub(mul(d, g), mul(g, d)):
            raise PreconditionError("delta disagrees with the commutator map of d at a generator")
    for p in elements:
        report.checked += 1
        got = sub(mul(d, p), mul(p, d))
        if values[p] != got:
            report.failures.append(Failure((p,), values[p], got, "not implemented by d"))
            return report
    return report


def _outcome(check, *args, **kwargs):
    try:
        r = check(*args, **kwargs)
    except PreconditionError:
        return "precondition"
    except ShapeMismatchError as exc:
        return f"raised {exc}"
    failures = [(f.inputs, f.expected, f.got, f.note) for f in r.failures]
    return r.passed, r.checked, failures


def _verdict(outcome):
    if isinstance(outcome, str):
        return outcome
    failures = outcome[2]
    return failures[0][3] if failures else "pass"


def _seeded_pairs(label, carrier, count):
    rng = rng_for(7, f"twogen-diff:{label}")
    card = carrier.cardinality

    def draw():
        if label == "M3Z7":  # c * e_ij: one nonzero coordinate
            return carrier.element(rng.randrange(1, 7) * 7 ** rng.randrange(9))
        return carrier.element(rng.randrange(card))

    pairs = [(carrier.zero, carrier.zero)]
    for _ in range(count):
        x = draw()
        pairs.append((x, x) if rng.random() < 0.15 else (x, draw()))
    return pairs


@pytest.mark.parametrize("label", sorted(DIFF_CARRIERS))
def test_generate_subring_matches_reference(monkeypatch, label):
    carrier = DIFF_CARRIERS[label]()
    pairs = _seeded_pairs(label, carrier, 25)
    closures = [generate_subring(x, y, carrier) for x, y in pairs]
    # the operator walk, with the row table hidden, gives the same closure:
    # elements, span generators in order, and the caller's generators
    with monkeypatch.context() as patched:
        patched.setattr(carrier, "row_codes", None)
        for (x, y), S in zip(pairs, closures):
            assert S == generate_subring(x, y, carrier)
            assert S.generators[0] is x and S.generators[1] is y
    # a generator off the row table takes the operator walk, which keeps
    # the caller's objects as span generators
    for (x, y), S in zip(pairs[:10], closures):
        off = _Sub(carrier.base, x.rows)
        T = generate_subring(off, y, carrier)
        assert T == S
        if T.span_generators:
            assert T.span_generators[0] is off or T.span_generators[0] is y
    for (x, y), S in zip(pairs, closures):
        assert S.elements == _closure_reference(x, y, carrier)
        # each span generator at least doubles the span of those before it
        gens = S.span_generators
        sizes = [len(_additive_span(carrier, gens[:k])) for k in range(len(gens) + 1)]
        assert all(2 * a <= b for a, b in zip(sizes, sizes[1:]))
        assert _additive_span(carrier, gens) == set(S.elements)
        assert 1 << len(gens) <= len(S.elements)


class _Sub(Matrix):
    """Matrix values of another class: equal to the ambient ring's
    matrices, but off its row table."""

    __slots__ = ()


def _tables(S, rng):
    """(name, delta, d) cases over S: inner tables that pass, tables that
    break additivity at one element, at zero, or on a coset of the span of
    some span generators (additive along those), the identity table, an
    inner table with values off the row table, and the inner table with
    its values as :class:`_Sub`."""
    ambient = S.ambient
    card = ambient.cardinality
    a = ambient.element(rng.randrange(card))
    inner = {p: commutator(a, p) for p in S.elements}
    bump = ambient.element(1 + rng.randrange(card - 1))
    cases = [("inner", inner, a), ("other d", inner, ambient.element(rng.randrange(card)))]
    u = S.elements[rng.randrange(len(S.elements))]
    cases.append(("perturbed", {**inner, u: ambient.add(inner[u], bump)}, a))
    cases.append(("perturbed at zero", {**inner, ambient.zero: bump}, a))
    H = _additive_span(ambient, [g for g in S.span_generators if rng.random() < 0.5])
    outside = [w for w in S.elements if w not in H]
    if outside:
        w = outside[rng.randrange(len(outside))]
        coset = {ambient.add(w, h) for h in H}
        table = {p: ambient.add(v, bump) if p in coset else v for p, v in inner.items()}
        cases.append(("perturbed on a coset", table, a))
    x, y = S.generators
    d0 = witness_search(ambient, [(x, x), (y, y)])
    if d0 is not None:
        cases.append(("identity", {p: p for p in S.elements}, d0))
    if S.span_generators:
        # a value in M_{n+1}, off the row table: the pair scan raises
        # ShapeMismatchError when it adds that value
        g = S.span_generators[0]
        wide = corner_embed(inner[g], ambient.n + 1)
        cases.append(("generator value off the table", {**inner, g: wide}, a))
    subclass = {p: _Sub(ambient.base, v.rows) for p, v in inner.items()}
    cases.append(("inner, subclass values", subclass, a))
    return cases


@pytest.mark.parametrize("label", sorted(DIFF_CARRIERS))
def test_check_inner_matches_pair_scan(label):
    carrier = DIFF_CARRIERS[label]()
    rng = rng_for(11, f"twogen-inner:{label}")
    seen, verdicts = 0, set()
    for x, y in _seeded_pairs(label, carrier, 40):
        S = generate_subring(x, y, carrier)
        if len(S.elements) > 128 or seen >= 10:
            continue  # the reference scan of a passing table is |S|^2 additions
        seen += 1
        for name, delta, d in _tables(S, rng):
            want = _outcome(_inner_reference, S, delta, d)
            assert _outcome(check_inner_on_subring, S, delta, d) == want, name
            verdicts.add(_verdict(want))
    assert seen >= 5
    assert {"pass", "not additive", "precondition"} <= verdicts
    assert any(v.startswith("raised") for v in verdicts)


@pytest.mark.parametrize("label", sorted(DIFF_CARRIERS))
def test_check_inner_generator_pair_scan_matches_reference(monkeypatch, label):
    # with the pair cap at 0 every closure counts as large, so a table the
    # certificate rejects is scanned on the pairs (u, g) with g a span generator
    monkeypatch.setattr(twogen, "PAIR_CAP", 0)
    carrier = DIFF_CARRIERS[label]()
    rng = rng_for(13, f"twogen-inner-large:{label}")
    seen, verdicts = 0, set()
    for x, y in _seeded_pairs(label, carrier, 40):
        S = generate_subring(x, y, carrier)
        if len(S.elements) > 128 or seen >= 10:
            continue
        seen += 1
        for name, delta, d in _tables(S, rng):
            want = _outcome(_inner_reference, S, delta, d, pair_cap=0)
            assert _outcome(check_inner_on_subring, S, delta, d) == want, name
            verdicts.add(_verdict(want))
    assert seen >= 5
    assert {"pass", "not additive", "precondition"} <= verdicts
    assert any(v.startswith("raised") for v in verdicts)


def test_check_inner_certifies_large_closures():
    # closures of 1,024 and 4,096 elements of M2(Z2[t]/(t^3)), whose |S|^2
    # pairs are far above the pair cap, are certified whole
    carrier = matrix_ring(polyquot(2, 3), 2)
    card = carrier.cardinality
    rng = rng_for(0, "twogen-large")
    closures = {}
    while len(closures) < 2:
        x, y = carrier.element(rng.randrange(card)), carrier.element(rng.randrange(card))
        S = generate_subring(x, y, carrier)
        if len(S.elements) in (1024, 4096):
            closures.setdefault(len(S.elements), S)
    for size, S in sorted(closures.items()):
        a = carrier.element(rng.randrange(card))
        inner = {p: commutator(a, p) for p in S.elements}
        got = _outcome(check_inner_on_subring, S, inner, a)
        assert got == _outcome(_inner_reference, S, inner, a)
        assert got[:3] == (True, size**2 + size, [])
        u = S.elements[rng.randrange(size)]
        broken = {**inner, u: carrier.add(inner[u], carrier.one)}
        got = _outcome(check_inner_on_subring, S, broken, a)
        assert got == _outcome(_inner_reference, S, broken, a)
        ((inputs, _, _, note),) = got[2]
        assert note == "not additive" and inputs[1] in S.span_generators


@pytest.mark.parametrize("label", ["M2Z2", "M2Z3"])
def test_check_inner_zero_closure_with_nonzero_value(label):
    carrier = DIFF_CARRIERS[label]()
    zero = carrier.zero
    S = generate_subring(zero, zero, carrier)
    assert S.elements == (zero,) and S.span_generators == ()
    delta = {zero: carrier.element(1)}
    want = _outcome(_inner_reference, S, delta, zero)
    doubled = carrier.add(delta[zero], delta[zero])
    assert want[:3] == (False, 1, [((zero, zero), doubled, delta[zero], "not additive")])
    assert _outcome(check_inner_on_subring, S, delta, zero) == want


def test_check_inner_certificate_checks_the_wrap_of_each_generator():
    # over Z4, x = 2e11 and y = e11 give the span generators [2e11, e11],
    # and 2*e11 falls back into the span of the first.  delta(e11) = e11
    # and delta(2e11) = 0, extended along the coset tree (delta(3e11) =
    # delta(2e11) + delta(e11)), passes every tree edge; only the relation
    # check delta(2e11) = delta(e11) + delta(e11) rejects it
    z4 = zmod(4)
    carrier = matrix_ring(z4, 2)
    e11 = matrix_unit(z4, 2, 1, 1)
    x, y = carrier.add(e11, e11), e11
    S = generate_subring(x, y, carrier)
    assert S.span_generators == (x, y)
    assert set(S.elements) == {carrier.zero, e11, x, carrier.add(x, e11)}
    delta = {carrier.zero: carrier.zero, e11: e11, x: carrier.zero, carrier.add(x, e11): e11}
    want = _outcome(_inner_reference, S, delta, carrier.zero)
    assert want[0] is False and want[2][0][3] == "not additive"
    assert _outcome(check_inner_on_subring, S, delta, carrier.zero) == want


def test_check_inner_certificate_checks_a_wrap_to_zero():
    # S = {0, 2e11} over Z4: 2 * (2e11) = 0, and delta(2e11) = e11 is not
    # additive because e11 + e11 != delta(0)
    z4 = zmod(4)
    carrier = matrix_ring(z4, 2)
    e11 = matrix_unit(z4, 2, 1, 1)
    x = carrier.add(e11, e11)
    S = generate_subring(x, x, carrier)
    assert S.span_generators == (x,) and S.elements == (carrier.zero, x)
    delta = {carrier.zero: carrier.zero, x: e11}
    want = _outcome(_inner_reference, S, delta, carrier.zero)
    assert want[:3] == (False, 4, [((x, x), x, carrier.zero, "not additive")])
    assert _outcome(check_inner_on_subring, S, delta, carrier.zero) == want


def _additive_not_inner(S, a, rng):
    """delta = [a, .] + lam(.) * c with lam a Z_m-linear functional of the
    coordinates that vanishes at both generators: additive, equal to
    [a, .] at x and y, and unequal to it somewhere on S.  None when no
    functional of 30 draws does that."""
    ambient = S.ambient
    card, (m, size) = ambient.cardinality, _module_rank(ambient)

    def coords(p):
        i = ambient.index(p)
        return [(i // m**k) % m for k in range(size)]

    def times(k, c):
        acc = ambient.zero
        for _ in range(k):
            acc = ambient.add(acc, c)
        return acc

    inner = {p: commutator(a, p) for p in S.elements}
    for _ in range(30):
        w = [rng.randrange(m) for _ in range(size)]
        c = ambient.element(1 + rng.randrange(card - 1))
        lam = {p: sum(u * v for u, v in zip(w, coords(p))) % m for p in S.elements}
        delta = {p: ambient.add(inner[p], times(lam[p], c)) for p in S.elements}
        if all(lam[g] == 0 for g in S.generators) and delta != inner:
            return delta
    return None


@pytest.mark.parametrize("label", ["M2Z2", "M2Z3", "M2Z4"])
def test_check_inner_generator_proof_matches_reference(label):
    # agreement with [d, .] is proved on the span generators; inner tables
    # and additive tables that agree with [a, .] only at x and y must give
    # the element scan's report, its count and its first failure
    carrier = DIFF_CARRIERS[label]()
    rng = rng_for(17, f"twogen-agree:{label}")
    if label == "M2Z2":
        pairs = list(product(carrier.elements(), carrier.elements()))
    else:
        pairs = _seeded_pairs(label, carrier, 60)
    verdicts = {"pass": 0, "not implemented by d": 0}
    for x, y in pairs:
        S = generate_subring(x, y, carrier)
        if len(S.elements) > 128:
            continue  # the reference scan of a passing table is |S|^2 additions
        a = carrier.element(rng.randrange(carrier.cardinality))
        cases = [{p: commutator(a, p) for p in S.elements}]
        bumped = _additive_not_inner(S, a, rng)
        if bumped is not None:
            cases.append(bumped)
        for delta in cases:
            want = _outcome(_inner_reference, S, delta, a)
            assert _outcome(check_inner_on_subring, S, delta, a) == want
            verdicts[_verdict(want)] += 1
    assert min(verdicts.values()) >= 5, verdicts
