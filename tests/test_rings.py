import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlocal import (
    PreconditionError,
    ShapeMismatchError,
    Zmod,
    commutator,
    generate_subring,
    is_commutative,
    matrix_ring,
    parse_ring_spec,
    polyquot,
    ring_axiom_check,
    verify_diagonal_differences,
    zmod,
)
from adlocal.deriv import _coordinates, verification_domain
from adlocal.matrix import Matrix, MatrixRing, row_table
from adlocal.rings import AXIOM_EXHAUSTIVE_CAP, COMMUTATIVITY_EXHAUSTIVE_CAP


def test_enumerate_z2():
    assert zmod(2).elements() == (0, 1)


def test_enumerate_z3():
    assert zmod(3).elements() == (0, 1, 2)


def test_enumerate_poly_2_2_canonical_order():
    ring = polyquot(2, 2)
    assert [ring.el_str(e) for e in ring.elements()] == ["0", "1", "t", "t+1"]


def test_enumeration_is_stable():
    ring = polyquot(3, 2)
    assert ring.elements() == ring.elements()


def test_zero_is_index_zero():
    for ring in (zmod(5), polyquot(2, 3), matrix_ring(zmod(2), 2)):
        assert ring.elements()[0] == ring.zero
        assert ring.index(ring.zero) == 0


@given(st.integers(2, 9), st.data())
@settings(max_examples=40, deadline=None)
def test_index_element_roundtrip(m, data):
    ring = zmod(m)
    i = data.draw(st.integers(0, ring.cardinality - 1))
    assert ring.index(ring.element(i)) == i


@given(st.integers(2, 4), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_poly_roundtrip_and_str(m, k, data):
    ring = polyquot(m, k)
    i = data.draw(st.integers(0, ring.cardinality - 1))
    e = ring.element(i)
    assert ring.index(e) == i
    # distinct elements write distinct literals
    assert len({ring.el_str(v) for v in ring.elements()}) == ring.cardinality


@given(st.integers(2, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_ring_axiom_triples(m, data):
    ring = polyquot(m, 2)
    draw = lambda: ring.element(data.draw(st.integers(0, ring.cardinality - 1)))
    a, b, c = draw(), draw(), draw()
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.mul(ring.one, a) == a and ring.mul(a, ring.one) == a
    assert ring.add(a, ring.neg(a)) == ring.zero


def test_axiom_check_catches_broken_ring():
    class Broken(Zmod):
        def mul(self, a, b):
            return (a * b + 1) % self.modulus

    with pytest.raises(ValueError):
        ring_axiom_check(Broken(5))


class _AddNotAssociative(Zmod):
    def add(self, a, b):
        return (a + 2 * b) % self.modulus


class _AddNotCommutative(Zmod):
    def add(self, a, b):
        return a


class _MulNotAssociative(Zmod):
    def mul(self, a, b):
        return (a * b + 1) % self.modulus


class _LeftProjection(Zmod):
    def mul(self, a, b):
        return a


class _RightProjection(Zmod):
    def mul(self, a, b):
        return b


class _WrongUnit(Zmod):
    @property
    def one(self):
        return 2


class _WrongNegAbove95(Zmod):
    def neg(self, a):
        return a if a > 95 else -a % self.modulus


@pytest.mark.parametrize(
    "broken, message",
    [
        (_AddNotAssociative, "addition not associative"),
        (_AddNotCommutative, "addition not commutative"),
        (_MulNotAssociative, "multiplication not associative"),
        (_LeftProjection, "left distributivity fails"),
        (_RightProjection, "right distributivity fails"),
        (_WrongUnit, "unit law fails at 19"),
        (_WrongNegAbove95, "additive inverse fails at 100"),
    ],
)
def test_sampled_axiom_check_catches_broken_ring(broken, message):
    # 101 elements: above AXIOM_EXHAUSTIVE_CAP, so the seeded triples run;
    # the elements named are the first seeded draws that break the law
    ring = broken(101)
    assert ring.cardinality > AXIOM_EXHAUSTIVE_CAP
    with pytest.raises(ValueError) as info:
        ring_axiom_check(ring)
    assert str(info.value) == f"zmod:101: {message}"


@pytest.mark.parametrize(
    "broken, message",
    [
        (_AddNotAssociative, "addition not associative"),
        (_AddNotCommutative, "addition not commutative"),
        (_MulNotAssociative, "multiplication not associative"),
        (_LeftProjection, "multiplication not associative"),
        (_RightProjection, "multiplication not associative"),
        (_WrongUnit, "unit law fails at [[1,2],[2,1]]@zmod:4"),
        (_WrongNegAbove95, None),  # no residue of Z4 is above 95
    ],
)
def test_sampled_axiom_check_on_a_matrix_ring_over_a_broken_base(broken, message):
    # M2 over a broken Z4 has 256 elements, so the seeded triples run on
    # its row table; the messages are those of the Matrix operators.  Row
    # tables are interned on the base ring object, so each broken base
    # gets its own table and not the one of zmod(4).
    ring = MatrixRing(broken(4), 2)
    assert ring.cardinality > AXIOM_EXHAUSTIVE_CAP and ring.row_codes is not None
    if message is None:
        ring_axiom_check(ring)
        return
    with pytest.raises(ValueError) as info:
        ring_axiom_check(ring)
    assert str(info.value) == f"mat:zmod:4:2: {message}"


def test_is_commutative_z6():
    assert is_commutative(zmod(6)) is True


def test_is_commutative_matrix_base_false():
    assert is_commutative(matrix_ring(zmod(2), 2)) is False


def test_is_commutative_poly_2_3():
    assert is_commutative(polyquot(2, 3)) is True


class _CountingZmod(Zmod):
    def __init__(self, modulus):
        super().__init__(modulus)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)


def test_is_commutative_declared_above_cap():
    # above the cap the declared flag is the verdict, with no product taken
    for declared in (True, False):
        ring = _CountingZmod(10007)
        assert ring.cardinality > COMMUTATIVITY_EXHAUSTIVE_CAP
        ring.commutative_declared = declared
        assert is_commutative(ring) is declared
        assert ring.muls == 0


def test_is_commutative_caches_the_verdict_on_the_ring():
    ring = _CountingZmod(7)
    assert is_commutative(ring) is True
    assert ring.muls == 2 * 7 * 7
    ring.muls = 0
    assert is_commutative(ring) is True
    assert ring.muls == 0


def test_commutativity_verdict_is_not_shared_by_spec():
    # both orders: a verdict cached on one object must not answer for
    # another object with the same spec
    for first, second in ((_LeftProjection(3), Zmod(3)), (Zmod(3), _LeftProjection(3))):
        assert first != second  # a ring is equal only to itself
        verdicts = {type(r): is_commutative(r) for r in (first, second)}
        assert verdicts == {Zmod: True, _LeftProjection: False}


def test_declared_flag_agrees_with_exhaustive_check():
    for ring in (zmod(6), polyquot(2, 3), matrix_ring(zmod(2), 2), matrix_ring(zmod(3), 2)):
        assert ring.cardinality <= COMMUTATIVITY_EXHAUSTIVE_CAP
        assert is_commutative(ring) is ring.commutative_declared


def test_matrix_ring_is_interned_per_base_object():
    # a spec-equal base with other arithmetic gets its own matrix ring,
    # so its broken addition is axiom-checked
    assert matrix_ring(zmod(4), 2).spec == "mat:zmod:4:2"
    broken = _AddNotAssociative(4)
    assert broken != zmod(4)  # a ring is equal only to itself
    with pytest.raises(ValueError, match="addition not associative"):
        matrix_ring(broken, 2)


def test_tables_coordinates_and_domains_are_interned_per_ring_object():
    left = _LeftProjection(3)
    assert left != zmod(3)
    assert row_table(left, 2) is not row_table(zmod(3), 2)
    assert row_table(left, 2).terms != row_table(zmod(3), 2).terms
    m2z3 = matrix_ring(zmod(3), 2)
    assert _coordinates(MatrixRing(zmod(3), 2)) is not _coordinates(m2z3)
    # the subclass's Z_m coordinates are not known, so it gets none
    with pytest.raises(PreconditionError):
        _coordinates(MatrixRing(left, 2))
    # a verification domain lists the carrier's own elements
    other = MatrixRing(left, 2)
    assert verification_domain(other) is not verification_domain(m2z3)
    assert {x._rt for x in verification_domain(other)} == {other.row_codes}


def test_matrices_over_spec_equal_bases_of_other_classes_do_not_mix():
    # two base objects with one spec, of two classes or of one class, and
    # the same down through nested matrix bases: matrices over them do not mix
    z3 = zmod(3)
    outer_z3 = matrix_ring(z3, 1)
    for left, right in (
        (_LeftProjection(3), z3),
        (Zmod(3), z3),
        (MatrixRing(_LeftProjection(3), 1), outer_z3),
        (MatrixRing(z3, 1), outer_z3),
    ):
        assert left != right  # a ring is equal only to itself
        a, b = (Matrix(r, ((r.one, r.zero), (r.one, r.one))) for r in (left, right))
        for op in (operator.add, operator.sub, operator.mul, commutator):
            for u, v in ((a, b), (b, a)):
                with pytest.raises(ShapeMismatchError):
                    op(u, v)
        assert a != b
        assert not a == b
        assert a == Matrix(left, a.rows)
        assert not MatrixRing(right, 2).contains(a)
        assert MatrixRing(left, 2).contains(a)
        with pytest.raises(ValueError, match="do not live in the ambient ring"):
            generate_subring(a, b, MatrixRing(right, 2))
        with pytest.raises(PreconditionError, match="different matrix rings"):
            verify_diagonal_differences(a, b)


def test_parse_ring_specs():
    assert parse_ring_spec("zmod:4").spec == "zmod:4"
    assert parse_ring_spec("poly:2:3").spec == "poly:2:3"
    ring = parse_ring_spec("mat:zmod:2:2")
    assert ring.spec == "mat:zmod:2:2"
    assert ring.base.spec == "zmod:2"
    assert ring.n == 2


@pytest.mark.parametrize("bad", ["", "zmod", "zmod:x", "poly:2", "mat:2", "ring:3", "zmod:1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_ring_spec(bad)


def test_interning():
    assert zmod(2) is zmod(2)
    assert polyquot(2, 3) is polyquot(2, 3)
    assert matrix_ring(zmod(2), 2) is matrix_ring(zmod(2), 2)


def test_poly_nilpotents():
    ring = polyquot(2, 2)
    t = ring.element(2)
    assert ring.el_str(t) == "t"
    assert ring.mul(t, t) == ring.zero


def test_cardinalities():
    assert zmod(6).cardinality == 6
    assert polyquot(2, 3).cardinality == 8
    assert matrix_ring(zmod(2), 3).cardinality == 512
    assert matrix_ring(polyquot(2, 3), 2).cardinality == 4096


@pytest.mark.parametrize("ring", [zmod(6), polyquot(3, 2)], ids=lambda r: r.spec)
def test_ring_commutator_default(ring):
    # commutative bases: every commutator vanishes
    els = ring.elements()
    for a in els:
        for x in els:
            assert ring.commutator(a, x) == ring.sub(ring.mul(a, x), ring.mul(x, a)) == ring.zero
