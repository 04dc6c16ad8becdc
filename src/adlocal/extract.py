"""Witness extraction: recover one implementing element for an inner
2-local derivation on M_n(R) from its pair oracle.

The construction interrogates the oracle only on the n(n-1) pairs
(e_ij, x_o), where x_o is the staircase element.  Off-diagonal entries of
the result come from the transposed sandwich e_ii * a(ji) * e_jj of the
collected witnesses (:func:`assemble_offdiagonal`); diagonal entries come
from the witness answered for the fixed unit pair (e_12, x_o), one of the
unit queries, so its answer is reused rather than asked again.  The paper
allows any fixed pair; the elements they give differ by a central element.
Over a commutative base ring the assembled element implements the induced
map everywhere; verifying that is the caller's job
(:func:`adlocal.deriv.maps_equal`), extraction itself only assembles.
An oracle whose carrier is not M_n of some base ring is refused with
ShapeMismatchError before any query.
"""

from __future__ import annotations

from .deriv import Failure, VerificationReport, WitnessOracle, _first_failure
from .errors import (
    DimensionError,
    MissingWitnessError,
    NonCommutativeBaseError,
    PreconditionError,
    ShapeMismatchError,
)
from .matrix import Matrix, MatrixRing, commutator, pierce_component, staircase
from .rings import is_commutative


def _unit_carrier(oracle: WitnessOracle, n: int) -> MatrixRing:
    """The oracle's carrier, refused unless it is M_n of some base ring."""
    carrier = oracle.carrier
    if not isinstance(carrier, MatrixRing) or carrier.n != n:
        raise ShapeMismatchError(f"dimension {n} is not that of {carrier.spec}")
    return carrier


def collect_unit_witnesses(oracle: WitnessOracle, n: int) -> dict:
    """a(ij) = select(e_ij, x_o) for every ordered pair of distinct indices.

    Any InconsistentOracleError the oracle raises while answering (oracles
    built by pair_oracle do, at a pair without a common witness)
    propagates.  The collection itself imposes no cross-witness condition:
    the assembly reads each witness only at the entries its own pair pins
    down.
    """
    if n < 2:
        raise DimensionError("unit witnesses need dimension at least 2")
    carrier = _unit_carrier(oracle, n)
    units = carrier.units()  # row-major: e_ij at (i - 1) * n + j - 1
    xo = staircase(carrier.base, n)
    witnesses = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            witnesses[(i, j)] = oracle.select(units[(i - 1) * n + j - 1], xo)
    return witnesses


def assemble_offdiagonal(unit_witnesses: dict, n: int) -> Matrix:
    """Sum of e_ii * a(ji) * e_jj over all ordered pairs i != j.

    Note the index transposition: entry (i, j) is read from the witness
    collected for the unit e_ji.
    """
    try:
        sample = next(iter(unit_witnesses.values()))
    except StopIteration:
        raise MissingWitnessError("empty witness table") from None
    base = sample.ring
    z = base.zero
    rows = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = unit_witnesses.get((j + 1, i + 1))
            if w is None:
                raise MissingWitnessError(f"no witness for unit ({j + 1},{i + 1})")
            rows[i][j] = w.entry(i + 1, j + 1)
    return Matrix(base, tuple(tuple(r) for r in rows))


def extract_witness(oracle: WitnessOracle, n: int, force: bool = False) -> Matrix:
    """Assemble the implementing element from n(n-1) oracle queries: the
    off-diagonal assembly with the diagonal of the witness of (e_12, x_o).

    A non-commutative base ring is outside the construction's guarantee
    and is refused unless ``force``.  Both refusals come before any oracle
    query.
    """
    base = _unit_carrier(oracle, n).base
    if not is_commutative(base) and not force:
        raise NonCommutativeBaseError(
            f"{base.spec} is not commutative; extraction is only guaranteed "
            "over commutative base rings (force=True probes anyway)"
        )
    witnesses = collect_unit_witnesses(oracle, n)
    rows = [list(r) for r in assemble_offdiagonal(witnesses, n).rows]
    diag = witnesses[(1, 2)].rows
    for i in range(n):
        rows[i][i] = diag[i][i]
    return Matrix(base, tuple(tuple(r) for r in rows))


def verify_unit_image_formula(
    oracle: WitnessOracle,
    n: int,
    i: int,
    j: int,
    unit_witnesses: dict,
) -> VerificationReport:
    """Check that the induced unit image decomposes against the assembled
    off-diagonal sum:

        value(e_ij) = S e_ij - e_ij S + (a(ij))_ii e_ij - e_ij (a(ij))_jj

    with S the off-diagonal assembly of ``unit_witnesses``, the table
    :func:`collect_unit_witnesses` returns for the oracle, which callers
    collect once for all (i, j).  For n >= 3 the check also replays
    the identities behind that decomposition: the Pierce components (i,i)
    and (j,j), then for every index m distinct from i and j the two
    witness overlaps, which query the extra witnesses select(e_im, e_ij)
    and select(e_mj, e_ij), and the components (m,j), (m,i), (i,m) and
    (j,m).  For n = 2 there is no such m and the replay is an empty
    quantifier.  The identities are read in that order by
    :func:`adlocal.deriv._first_failure`, so the check stops at the first
    one that fails.  Indices that are not two distinct values in 1..n
    raise ValueError before any oracle query.

    Not every identity can fail on its own.  The six Pierce-component
    identities follow from the unit image formula: its correction terms
    lie in the (i,j) component, so every other component of value(e_ij)
    is that of S e_ij - e_ij S.  At n = 2 the formula itself holds for any
    witness table, since both of its sides reduce to entries of a(ij)
    alone, so ``lemma2`` at n = 2 is a consistency run of the code, not a
    test of the oracle.  The checks and their count stay as they are.
    """
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"unit ({i},{j}) needs distinct indices in 1..{n}")
    carrier = _unit_carrier(oracle, n)
    units = carrier.units()  # row-major: e_kl at (k - 1) * n + l - 1
    e = {(k, l): units[(k - 1) * n + l - 1] for k in range(1, n + 1) for l in range(1, n + 1)}
    S = assemble_offdiagonal(unit_witnesses, n)
    aij = unit_witnesses[(i, j)]
    eij = e[(i, j)]
    delta = commutator(aij, eij)

    def identities():
        T = S * eij - eij * S
        rhs = T + pierce_component(aij, i, i) * eij - eij * pierce_component(aij, j, j)
        yield "unit image formula", delta, rhs, (eij,)
        if n < 3:
            return
        yield "component (i,i)", pierce_component(delta, i, i), pierce_component(T, i, i), (eij,)
        yield "component (j,j)", pierce_component(delta, j, j), pierce_component(T, j, j), (eij,)
        for m in range(1, n + 1):
            if m in (i, j):
                continue
            emm = e[(m, m)]
            at = (eij, emm)
            overlap_im = emm * oracle.select(e[(i, m)], eij) * eij
            overlap_mj = eij * oracle.select(e[(m, j)], eij) * emm
            yield "witness overlap at (i,m)", overlap_im, emm * unit_witnesses[(i, m)] * eij, at
            yield "witness overlap at (m,j)", overlap_mj, eij * unit_witnesses[(m, j)] * emm, at
            yield "component (m,j)", pierce_component(delta, m, j), pierce_component(T, m, j), at
            yield "component (m,i)", pierce_component(delta, m, i), pierce_component(T, m, i), at
            yield "component (i,m)", pierce_component(delta, i, m), pierce_component(T, i, m), at
            yield "component (j,m)", pierce_component(delta, j, m), pierce_component(T, j, m), at

    def differs(tag, lhs, rhs, inputs):
        if lhs != rhs:
            return Failure(inputs, rhs, lhs, tag)
        return None

    return _first_failure(identities(), differs)


def verify_diagonal_differences(b: Matrix, c: Matrix) -> VerificationReport:
    """Two elements with the same commutator against the staircase element
    must have identical diagonal differences: c_kk - c_ll = b_kk - b_ll
    for every pair of distinct indices, checked up to the first pair that
    differs."""
    if b.n != c.n or b.ring is not c.ring:
        raise PreconditionError("operands live in different matrix rings")
    base, n = b.ring, b.n
    xo = staircase(base, n)
    if commutator(b, xo) != commutator(c, xo):
        raise PreconditionError("operands do not implement the same staircase value")
    sub = base.sub
    b_rows, c_rows = b.rows, c.rows

    def differs(k, l):
        lhs = sub(c_rows[k][k], c_rows[l][l])
        rhs = sub(b_rows[k][k], b_rows[l][l])
        if lhs != rhs:
            return Failure((b, c), rhs, lhs, f"diagonal pair ({k + 1},{l + 1})")
        return None

    pairs = ((k, l) for k in range(n) for l in range(n) if k != l)
    return _first_failure(pairs, differs)
