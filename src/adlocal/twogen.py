"""Subrings generated by two elements, and the inner-implementation check.

The closure is non-unital: it contains the identity only when the
generators produce it.  :func:`generate_subring` grows it on row codes
(:class:`adlocal.matrix.RowTable`) when the ambient ring has a row table
and both generators are on it, and with the ambient ring's operators
otherwise; both walks give the same elements and span generators.  An
additive map on such a closure that agrees with the commutator map of
some element d at both generators must agree with it on every element of
the closure; :func:`check_inner_on_subring` verifies that claim for a map
given as a table on the closure, on every element, and reports where it
first breaks.

:func:`generate_subring` also returns a small additive generating set G of
the closure S, at most log2 |S| elements, each one outside the span of
those before it.  Additivity of a map delta on all |S|^2 pairs is
certified along the coset tree of G: delta(0) = 0, one check
delta(u + g) = delta(u) + delta(g) per element as the span grows by the
cosets H + k*g, and one relation check per generator where a multiple of
g falls back into H, so |S| + |G| checks in all.  The walk adds and
compares row codes (:class:`adlocal.matrix.RowTable`) when the ambient
ring has a row table and every element and value of the table is on it,
and uses the ambient ring's operators otherwise.  A closure has at most
ELEMENT_CAP elements, so every closure is certified this way.  A pair
scan runs only to report the first failure of a map the certificate
rejects: all |S|^2 ordered pairs of a small closure, or the |S| * |G|
pairs (u, g) of a large one, where delta additive on every (u, g) would
make it additive on S.

Agreement with the commutator map of d is proved the same way.  Once
delta is additive, delta - [d, .] is an additive map on S, so it vanishes
on S as soon as it vanishes on the span generators: at most log2 |S|
commutators instead of |S|.  The ordered scan of the elements runs only
to report the first element where a map that fails on a span generator
disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .deriv import (
    ELEMENT_CAP,
    PAIR_CAP,
    Failure,
    VerificationReport,
    _additive_on_span,
    _first_failure,
)
from .errors import ClosureBudgetError, PreconditionError
from .matrix import Matrix
from .rings import Ring


@dataclass(frozen=True)
class GeneratedSubring:
    """Finite closure of two elements under +, -, and *; the
    ``span_generators`` generate ``elements`` as an additive group."""

    ambient: Ring
    generators: tuple
    elements: tuple
    span_generators: tuple


def generate_subring(x: Matrix, y: Matrix, ambient: Ring) -> GeneratedSubring:
    """Least subset containing {x, y} closed under addition, negation and
    multiplication, in canonical element order.

    Grows the additive span H by x, y and every product of two generators,
    both ways round, keeping as a generator only a g outside H, which
    turns H into the union of the cosets H + k*g and so at least doubles
    it.  A product of two span elements is by distributivity a sum of
    generator products, so H is closed once all of those lie in it.
    Negatives come free in a finite additive group.  A closure of more
    than ELEMENT_CAP elements is refused with ClosureBudgetError before
    the span grows past the cap.

    When the ambient ring has a row table and x and y are matrices on it,
    the span grows on row codes (:meth:`RowTable.plus` and
    :meth:`RowTable.times`), whose tuple order is canonical order, and one
    Matrix is built per element at the end; otherwise it grows with the
    ambient ring's operators.  Both walks keep the same span generators in
    the same order, and ``generators`` are the caller's x and y.
    """
    if not (ambient.contains(x) and ambient.contains(y)):
        raise ValueError("generators do not live in the ambient ring")
    rt = ambient.row_codes
    if rt is not None:
        cx, cy = rt.codes(x), rt.codes(y)
        if cx is not None and cy is not None:
            span, gens = _span(rt.plus, rt.times, rt.zero, cx, cy)
            return GeneratedSubring(
                ambient, (x, y), tuple(map(rt.matrix, sorted(span))), tuple(map(rt.matrix, gens))
            )
    span, gens = _span(ambient.add, ambient.mul, ambient.zero, x, y)
    ordered = tuple(sorted(span, key=ambient.index))
    return GeneratedSubring(ambient, (x, y), ordered, tuple(gens))


def _span(add, mul, zero, x, y) -> tuple:
    """The closure of {x, y} as a set, and its span generators in order,
    grown with ``add`` and ``mul`` from ``zero`` (see
    :func:`generate_subring`)."""
    span, gens = {zero}, []

    def absorb(g):
        if g in span:
            return
        gens.append(g)
        base, step = list(span), g
        while step not in span:  # base + step is disjoint from span
            if len(span) + len(base) > ELEMENT_CAP:
                raise ClosureBudgetError(f"closure has more than {ELEMENT_CAP} elements")
            span.update(add(h, step) for h in base)
            step = add(step, g)

    absorb(x)
    absorb(y)
    for i, g in enumerate(gens):  # gens grows while it is walked
        for h in gens[: i + 1]:
            absorb(mul(g, h))
            absorb(mul(h, g))
    return span, gens


def _additive(S: GeneratedSubring, delta) -> bool:
    """:func:`_additive_on_span` of the mapping delta over
    ``S.span_generators``: on row codes when the ambient ring has a row
    table and every element of S and its value is a matrix on it,
    otherwise with the ambient ring's operators, so that a value off the
    table (a matrix of another shape, say) gives the operators' verdict or
    exception."""
    ambient = S.ambient
    rt = ambient.row_codes
    if rt is not None:
        codes = rt.codes
        table = {codes(p): codes(delta[p]) for p in S.elements}
        if None not in table and None not in table.values():
            gens = [codes(g) for g in S.span_generators]
            return _additive_on_span(rt.plus, rt.zero, table.__getitem__, gens)
    return _additive_on_span(ambient.add, ambient.zero, delta.__getitem__, S.span_generators)


def check_inner_on_subring(S: GeneratedSubring, delta, d) -> VerificationReport:
    """Verify delta(p) = d*p - p*d on the whole closure, up to the first
    element where it fails; ``delta`` is a mapping from every element of
    the closure to its value.

    Additivity of delta on S is the hypothesis and is checked first; a
    violation is reported in the result, not raised.  It is certified on
    all |S|^2 ordered pairs along the coset tree of ``S.span_generators``
    (see the module docstring), on row codes when the ambient ring has a
    row table (see :func:`_additive`), and ``checked`` counts the pairs the
    certificate covers.  Only when the certificate fails does a scan run
    to report the first failing pair: the ordered scan of all pairs when
    there are at most PAIR_CAP of them, otherwise the ordered pairs (u, g)
    with g a span generator, which must meet a failure because delta is
    additive once every such pair passes.  The certificate assumes that +
    and * distribute on the ambient ring, which makes ``S.span_generators``
    span S, and that delta is total on S.  Disagreement at a generator
    breaks the entry precondition and raises.

    Agreement delta(p) = [d, p] is then proved on the span generators,
    which suffices for the additive delta - [d, .], and ``checked`` grows
    by |S|, one for each element it covers.  When a span generator
    disagrees, the ordered scan of the elements reports the first element
    that does, with the count it reaches there.
    """
    ambient = S.ambient
    add, commutator = ambient.add, ambient.commutator
    elements = S.elements
    count = len(elements)

    def not_additive(u, v):
        if delta[add(u, v)] != add(delta[u], delta[v]):
            return Failure((u, v), add(delta[u], delta[v]), delta[add(u, v)], "not additive")
        return None

    if _additive(S, delta):
        additivity = VerificationReport(count * count)
    else:
        pairs = product(elements, elements if count * count <= PAIR_CAP else S.span_generators)
        additivity = _first_failure(pairs, not_additive)
        if not additivity:
            return additivity

    for g in S.generators:
        if delta[g] != commutator(d, g):
            raise PreconditionError(
                "delta disagrees with the commutator map of d at a generator"
            )

    def not_implemented(p):
        got = commutator(d, p)
        if delta[p] != got:
            return Failure((p,), delta[p], got, "not implemented by d")
        return None

    if all(delta[g] == commutator(d, g) for g in S.span_generators):
        agreement = VerificationReport(count)
    else:
        agreement = _first_failure(((p,) for p in elements), not_implemented)
    agreement.checked += additivity.checked
    return agreement
