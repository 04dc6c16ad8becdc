"""Extension machinery: maps given on a corner grow to the full matrix ring.

A derivation D on the corner ring A extends to M_2(A) by one rule, applied
Pierce block by Pierce block: D on the two diagonal blocks, D + id on the
(1,2) block and D - id on the (2,1) block.  This is the map that acts as D
on the (1,1) corner, is transported to the (2,2) corner through the
isomorphism a -> e21*a*e12, and sends the off-diagonal units to the fixed
images e12 -> e12, e21 -> -e21.  Doubling repeats the rule on the block
decomposition of M_2m(R) into m x m blocks, and compressing with the
idempotent e = e_11 + ... + e_nn finishes the extension from a 2x2 corner
to M_n(R) for any n.  The rule keeps every block in its row band: the top
m rows of a doubled value depend only on the top m rows of the argument,
and the bottom m rows only on its bottom m rows, so a doubled map is
memoised one half-row band at a time.  On a row table each band's image
also has its share of the canonical index, so once the carrier has been
listed a value is the listed element at the sum of the two shares, and
no matrix is built.

A 2-local oracle extends through its induced map: that map extends by the
same doubling and compression, and each queried pair of the extension is
answered by witness search in M_n(R) on the two extended values there.  A
pair without a common witness would be a counterexample to the 2-locality
of the extension and raises InconsistentOracleError.

The roundtrip at the end extends a corner oracle to M_n(R), extracts one
implementing element there, and reads its top-left corner back.
"""

from __future__ import annotations

from operator import add

from .deriv import (
    DerivationMap,
    WitnessOracle,
    _Memo,
    pair_oracle,
    verification_domain,
    verification_elements,
)
from .errors import (
    DimensionError,
    NonCommutativeBaseError,
    ShapeMismatchError,
    VerificationFailedError,
)
from .extract import extract_witness
from .matrix import (
    Matrix,
    MatrixRing,
    _coded,
    _computed,
    corner_embed,
    corner_extract,
    matrix_ring,
)
from .rings import is_commutative


def _block_maps(A, ev) -> tuple:
    """The three block maps of the corner rule for the map ``ev`` on A:
    v -> D(v), D(v) + v and D(v) - v, each computed on its first use and
    stored, so D runs once per block value met."""
    add, sub = A.add, A.sub
    diag = _Memo(ev)
    plus = _Memo(lambda v: add(diag[v], v))
    minus = _Memo(lambda v: sub(diag[v], v))
    return diag.__getitem__, plus.__getitem__, minus.__getitem__


def _map_on(ring, evaluate) -> DerivationMap:
    return DerivationMap(ring, evaluate, verification_domain(ring))


def double_derivation(D: DerivationMap) -> DerivationMap:
    """One doubling step of a derivation D on A = M_m(R) to M_2m(R).  The
    corner extension of D to M_2(A) sends [[b11, b12], [b21, b22]] to
    [[D b11, (D+id) b12], [(D-id) b21, D b22]]; the doubled map is that
    extension on flat 2m x 2m matrices, read through the isomorphism
    :func:`adlocal.matrix.block_flatten`, so the rule acts on the four
    m x m blocks.

    The rule keeps each block in its row band: the top m rows of the image
    are (D b11 | (D+id) b12), read off the top m rows of the argument, and
    the bottom m rows are ((D-id) b21 | D b22), read off its bottom m rows.
    So the map is memoised half by half, keyed by the raw row data of the
    half (row codes, or row tuples above ROW_TABLE_CAP).  A half seen for
    the first time is split into its two blocks, which go through the
    block maps, so D still runs once per distinct block value.

    Above the cap an evaluation is two dict lookups and a concatenation of
    rows.  On a row table each half also has a memo of its image's share
    of the canonical index: the index of the image with the other half's
    rows zero (see :meth:`adlocal.matrix.RowTable.index`).  Each
    evaluation asks whether M_2m(R) has been listed by then, since it may
    be listed after the map is built.  If it has, the value is the listed
    element at the sum of the two shares, and no matrix is built; if not,
    it is a Matrix on the concatenated row codes, and no share is
    computed."""
    A = D.carrier
    if not isinstance(A, MatrixRing):
        raise ShapeMismatchError("doubling needs a matrix-ring carrier")
    R, m = A.base, A.n
    big = matrix_ring(R, 2 * m)
    rt, half = big.row_codes, A.row_codes
    dv, pv, mv = _block_maps(A, D.evaluate)

    if rt is not None:
        # the first m digits of a row code are the code of its left half
        width = half.size

        def band(left, right):
            def image(h):
                u = left(_coded(R, m, half, tuple([c // width for c in h])))._data
                v = right(_coded(R, m, half, tuple([c % width for c in h])))._data
                return tuple([a * width + b for a, b in zip(u, v)])

            return _Memo(image)

    else:

        def band(left, right):
            def image(h):
                u = left(_computed(R, tuple([row[:m] for row in h]))).rows
                v = right(_computed(R, tuple([row[m:] for row in h]))).rows
                return tuple(map(add, u, v))

            return _Memo(image)

    top, bottom = band(dv, pv), band(mv, dv)
    if rt is None:

        def evaluate(x):
            data = x._data
            return _coded(R, 2 * m, rt, top[data[:m]] + bottom[data[m:]])

        return _map_on(big, evaluate)
    n, pad = 2 * m, rt.zero[:m]
    top_share = _Memo(lambda h: rt.index(top[h] + pad))
    bottom_share = _Memo(lambda h: rt.index(pad + bottom[h]))

    def evaluate(x):
        data = x._data
        listed = big._elements
        if listed is None:
            return _coded(R, n, rt, top[data[:m]] + bottom[data[m:]])
        return listed[top_share[data[:m]] + bottom_share[data[m:]]]

    return _map_on(big, evaluate)


def extend_derivation_to_n(D: DerivationMap, n: int) -> DerivationMap:
    """Double a corner derivation on M_m(R) up to the least top = m * 2^k
    >= n.  When top = n the last doubling stage is the result; otherwise
    the result is its compression to M_n(R) by the rank-n idempotent
    e = e_11 + ... + e_nn, which reads the top-left n x n corner of the
    top stage's map on corner-embedded arguments.  The result restricts
    to D."""
    m = D.carrier.n
    if n <= m:
        raise DimensionError(f"target dimension {n} does not exceed the corner {m}")
    target = matrix_ring(D.carrier.base, n)  # an oversize target is refused before any doubling
    while D.carrier.n < n:
        D = double_derivation(D)
    top = D.carrier.n
    if top == n:
        return D
    top_map = D.evaluate

    def compressed(x):
        return corner_extract(top_map(corner_embed(x, top)), n)

    return _map_on(target, compressed)


def extend_two_local_to_n(oracle: WitnessOracle, n: int) -> WitnessOracle:
    """Extend a corner oracle to M_n(R): its induced map extends as a
    derivation would (doubling, then compression; see
    :func:`extend_derivation_to_n`), and :func:`pair_oracle` answers each
    queried pair from the extended values at its two points.  An
    inconsistent corner oracle shows up as a pair without a common witness
    (InconsistentOracleError)."""
    D = extend_derivation_to_n(_map_on(oracle.carrier, oracle.value), n)
    return pair_oracle(D.carrier, D.evaluate)


def extend_extract_compress(oracle: WitnessOracle, n: int, force: bool = False) -> Matrix:
    """Roundtrip: extend a corner oracle to M_n(R), extract one global
    implementing element d there, read its top-left corner c back (the
    corner of the compression e d e), and verify commutator(c, x)
    reproduces the corner map on every corner element.  Returns c as a
    2x2 matrix; a counterexample raises.

    The check scans the elements rather than proving agreement on a basis,
    as ``extract-all`` and :func:`check_inner_on_subring` do: one side is
    ``oracle.value``, the 2-local map under test, which is not known to be
    additive, so agreement on a generating set would not carry over to the
    other elements."""
    corner = oracle.carrier
    R = corner.base
    if not is_commutative(R) and not force:
        raise NonCommutativeBaseError(
            f"{R.spec} is not commutative; the roundtrip is only guaranteed "
            "over commutative base rings (force=True probes anyway)"
        )
    nabla = extend_two_local_to_n(oracle, n)
    d = extract_witness(nabla, n, force=force)
    c = corner_extract(d, corner.n)
    commutator = corner.commutator
    for x in verification_elements(corner):
        if commutator(c, x) != oracle.value(x):
            raise VerificationFailedError(
                "compressed witness fails to implement the corner map",
                counterexample=x,
            )
    return c
