"""Derivations, inner derivations, witness oracles, and their checkers.

The workhorse here is :func:`witness_search`, which realizes every "there
exists an element b such that [b, x] = t" statement and returns the
canonically minimal solution.  Every carrier built from ``zmod``, ``poly``
and ``mat:`` descriptors is the Z_m-module Z_m^N, its coordinates being
the base-m digits of the canonical index, so canonical order is
lexicographic order of coordinates.  The map b -> [b, x] is Z_m-linear,
which makes the search one linear system over Z_m: its solutions form a
coset of the kernel, and a particular solution reduced by the Howell form
of the kernel is that coset's least element, the same element a scan of
the carrier in canonical order would meet first.  The elimination depends
only on the carrier and the points x, not on the targets; constraints are
solved in canonical point order, so (x, y) and (y, x) share one form, and
the same points recur across calls (a closure's delta table, the extraction
pairs of every hidden element, the corner points of every extension
oracle), so each form is built once and reused from a process-wide
least-recently-used cache, :func:`_echelon`, holding at most
ECHELON_CACHE_FORMS forms; a reused form is the one a fresh elimination
would build, so results do not depend on the cache.
:func:`check_two_local` asks only whether a witness exists, and its
seeded pairs seldom recur, so it leaves the cache alone.  It scans its
pairs lazily: a pair passes at once where the map's carried ``witness``
implements it at both points, which settles the inner maps the paper is
about, and any other pair not proved by an earlier one is decided by one
uncached elimination of the image rows (:meth:`_Coordinates.consistent`).
One elimination loop, :meth:`_Coordinates._eliminate`, serves them all.
A point, target or hidden element of another ring is refused with
ShapeMismatchError.  The oracles here are deliberately adversarial - they
answer with the minimal witness, never with the element that secretly
induced the map - so downstream algorithms cannot cheat by recognizing
their input.
:func:`pair_oracle` finds it from the map's values;
:func:`adversarial_oracle` reduces its hidden element modulo the pair's
common centralizer, which gives the same element.

Verification domains list all matrix units first, then the staircase
element, then the rest of the carrier (or a seeded sample for large
carriers).  Checks evaluate pairs in that order and return at the first
failure, so a report carries at most one counterexample and it is
deterministic: one counterexample settles a universal claim.  That policy
lives in one place, :func:`_first_failure`, through which every checker of
the package builds its report.
:func:`check_derivation` first tries to certify every pair at once from
the Z_m coordinate basis, and scans only when that fails.  On a carrier
with a row table both run on row codes (:class:`adlocal.matrix.RowTable`):
the map is memoised by the row codes of its argument, each pair's sums,
product and Leibniz side come from one row-code pass, and values compare
as tuples.  A point or a value off the table starts the check over on the
carrier's operators, which other carriers use from the start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from itertools import product
from operator import itemgetter
from typing import Callable

from .errors import CarrierTooLargeError, InconsistentOracleError, PreconditionError
from .matrix import Matrix, MatrixRing, _module_rank, staircase
from .rings import Ring
from .sampling import _draws, rng_for

DEFAULT_SEED = 0
FULL_DOMAIN_CAP = 4096
DOMAIN_SAMPLE = 10_000
PAIR_CAP = 262_144
PAIR_SAMPLE = 100_000
TWO_LOCAL_PAIR_CAP = 4096
TWO_LOCAL_PAIR_SAMPLE = 1_000
ELEMENT_CAP = 1 << 16
ECHELON_CACHE_FORMS = 1024  # Howell forms the witness-search cache may hold


@dataclass(frozen=True)
class Failure:
    """One falsified identity: the inputs it was evaluated at, what the
    identity demanded, and what came out."""

    inputs: tuple
    expected: object
    got: object
    note: str = ""


@dataclass
class VerificationReport:
    """A checker's verdict: ``checked`` counts the cases it covers and
    ``failures`` holds the first counterexample, if any."""

    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed


def _first_failure(cases, check) -> VerificationReport:
    """The verdict of ``check`` on ``cases``: each case is read in order
    and ``check(*case)`` returns a Failure or None.  The first Failure ends
    the scan, so no later case is read; ``checked`` counts the cases read,
    the failing one included, and ``failures`` holds that Failure."""
    checked = 0
    for case in cases:
        checked += 1
        failure = check(*case)
        if failure is not None:
            return VerificationReport(checked, [failure])
    return VerificationReport(checked)


class _Memo(dict):
    """``memo[x]`` is ``fn(x)``, computed on the first lookup and stored, so
    a hit is a plain dict lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@dataclass
class DerivationMap:
    """A total map on a carrier with an explicit finite verification domain.

    The container itself does not assume the map is a derivation; that is
    what :func:`check_derivation` decides.  Maps known to be inner carry
    their implementing element in ``witness``.  :func:`check_two_local`
    tests it at each point of its stream and passes a pair at once where
    it implements the map at both points.  It never trusts it: a wrong
    element or a foreign object changes no report, only the work done to
    reach it.
    """

    carrier: Ring
    evaluate: Callable
    domain: tuple
    witness: Matrix | None = None


@dataclass
class WitnessOracle:
    """An inner 2-local derivation, represented by its pair oracle.

    ``select(x, y)`` yields one element implementing the map at both x
    and y.  An oracle built from its map (see :func:`pair_oracle`) carries
    that map in ``induced``; an oracle given only by ``select`` has its
    map read off the diagonal query.
    """

    carrier: Ring
    select: Callable
    induced: Callable | None = None

    def value(self, x):
        """Induced value at x: ``induced(x)`` when the oracle carries its
        map, else the commutator of select(x, x) against x."""
        if self.induced is not None:
            return self.induced(x)
        return self.carrier.commutator(self.select(x, x), x)


def _domain_lead(carrier: Ring) -> list:
    if not isinstance(carrier, MatrixRing):
        return []
    lead = list(carrier.units())
    if carrier.n >= 2:
        lead.append(staircase(carrier.base, carrier.n))
    return lead


@cache
def _sampled_domain(carrier: Ring, seed: int) -> tuple:
    """Units, then the staircase, then DOMAIN_SAMPLE seeded draws of the
    carrier, each element once, in the order first met; one per carrier
    object and seed, as :func:`verification_domain` is one per carrier
    object."""
    return tuple(
        dict.fromkeys(_domain_lead(carrier) + _draws(carrier, seed, "domain", DOMAIN_SAMPLE))
    )


@cache
def verification_domain(carrier: Ring) -> tuple:
    """Units, then the staircase, then all remaining elements in canonical
    order (carriers of at most FULL_DOMAIN_CAP elements) or DOMAIN_SAMPLE
    draws at DEFAULT_SEED (larger ones)."""
    if carrier.cardinality <= FULL_DOMAIN_CAP:
        return tuple(dict.fromkeys(_domain_lead(carrier) + list(carrier.elements())))
    return _sampled_domain(carrier, DEFAULT_SEED)


def verification_elements(carrier: Ring, seed: int = DEFAULT_SEED) -> tuple:
    """Element set for map-equality checks: exhaustive up to ELEMENT_CAP,
    otherwise units + staircase + DOMAIN_SAMPLE seeded draws."""
    if carrier.cardinality <= ELEMENT_CAP:
        return carrier.elements()
    return _sampled_domain(carrier, seed)


def inner_derivation(a, carrier: Ring) -> DerivationMap:
    """The map x -> a*x - x*a, with a full verification domain when small."""
    evaluate = partial(carrier.commutator, a)
    return DerivationMap(carrier, evaluate, verification_domain(carrier), witness=a)


def maps_equal(f: Callable, g: Callable, domain) -> VerificationReport:
    """Pointwise equality of two callables over the domain, up to the first
    difference, where the Failure expects g(x) and got f(x)."""

    def differs(x):
        fx, gx = f(x), g(x)
        if fx != gx:
            return Failure((x,), gx, fx, "maps differ")
        return None

    return _first_failure(((x,) for x in domain), differs)


def _pair_stream(carrier, domain, pair_cap, pair_samples, seed, label):
    """Ordered pairs of the whole domain when that is affordable, otherwise
    every matrix-unit pair followed by a seeded sample of carrier pairs.
    Returns the lazy stream and its length."""
    if len(domain) * len(domain) <= pair_cap:
        return product(domain, domain), len(domain) * len(domain)
    units = carrier.units() if isinstance(carrier, MatrixRing) else ()
    card = carrier.cardinality
    rng = rng_for(seed, f"{label}:{carrier.spec}")
    try:
        pick = carrier.elements().__getitem__
    except CarrierTooLargeError:
        pick = carrier.element

    def stream():
        for pair in product(units, units):
            yield pair
        randrange = rng.randrange
        for _ in range(pair_samples):
            yield pick(randrange(card)), pick(randrange(card))

    return stream(), len(units) * len(units) + max(pair_samples, 0)


def _additive_on_span(add, zero, value, generators) -> bool:
    """True iff ``value`` is additive on the additive group that the
    ``generators`` span, with + an abelian group law.

    The span H grows one generator g at a time by the cosets H + k*g,
    k = 1, 2, ..., up to the least r with r*g in H.  Each element of a new
    coset is checked once, against its parent u one coset before:
    value(u + g) = value(u) + value(g).  By induction on k that gives
    value(h + k*g) = value(h) + k*value(g) for h in H and k < r, and one
    relation check per generator, value(r*g) = value((r-1)*g) + value(g),
    closes the cycle, so value is additive on the grown span whenever it
    was on H.  It is needed even when r*g = 0: over Z_4, value(2e) = e is
    not additive.  With value(0) = 0 that makes |span| + |generators|
    checks in place of the |span|^2 pairs.

    The group may be a matrix carrier with its own operators, or the same
    carrier in row codes (:class:`adlocal.matrix.RowTable`), where ``add``
    is ``RowTable.plus``, elements and values are row-code tuples, and a
    hash or a comparison is a tuple operation.
    """
    if value(zero) != zero:
        return False
    span, vals, seen = [zero], [zero], {zero}
    for g in generators:
        dg, size = value(g), len(span)
        last, step = 0, g  # span[last] is (k-1)*g and step is k*g
        while step not in seen:
            for i in range(last, last + size):
                v = add(span[i], g)
                dv = value(v)
                if dv != add(vals[i], dg):
                    return False
                span.append(v)
                vals.append(dv)
                seen.add(v)
            last += size
            step = add(span[last], g)
        if value(step) != add(vals[last], dg):
            return False
    return True


def _coordinate_basis(carrier: Ring) -> list | None:
    """The Z_m coordinate basis E_k = element(m^k), k = 0, ..., N-1, of a
    carrier with the coordinates of :func:`_module_rank`, in canonical
    order, or None for a carrier without them.  Every element is a sum of
    multiples of the E_k, so two additive maps that agree on the basis
    agree on the carrier."""
    rank = _module_rank(carrier)
    if rank is None:
        return None
    m, size = rank
    return [carrier.element(m**k) for k in range(size)]


def _certified_derivation(carrier: Ring, ev, additive) -> bool:
    """True iff ``ev`` is a derivation of the whole carrier, decided from
    its Z_m coordinate basis E_k (see :func:`_coordinate_basis`).

    Leibniz is checked on the N^2 basis pairs (E_k, E_l) and additivity
    by ``additive(basis)``, the coset-tree walk of the basis.  When + and
    * distribute, the Leibniz defect D(xy) - D(x)y - xD(y) of an additive
    D is biadditive, so it vanishes on every pair once it vanishes on the
    basis pairs.  The basis pairs go first: a map that fails there, such
    as the identity, costs no walk of the carrier.
    """
    add, mul = carrier.add, carrier.mul
    basis = _coordinate_basis(carrier)
    for x in basis:
        dx = ev(x)
        for y in basis:
            if ev(mul(x, y)) != add(mul(dx, y), mul(x, ev(y))):
                return False
    return additive(basis)


def _operator_pair(carrier: Ring, ev, x, y) -> Failure | None:
    """The first identity of a derivation that fails at (x, y), with the
    carrier's operators and ``ev`` the memoised map: D(x + y) = D(x) +
    D(y), then D(xy) = D(x)y + xD(y), whose right side a Leibniz failure
    records as expected; None when both hold."""
    add, mul = carrier.add, carrier.mul
    dx, dy = ev(x), ev(y)
    if ev(add(x, y)) != add(dx, dy):
        return Failure((x, y), add(dx, dy), ev(add(x, y)), "additivity")
    leibniz = add(mul(dx, y), mul(x, dy))
    if ev(mul(x, y)) != leibniz:
        return Failure((x, y), leibniz, ev(mul(x, y)), "leibniz")
    return None


class _OffTable(Exception):
    """A point or a value of the map is not a matrix on the carrier's row
    table, so :func:`check_derivation` starts over on the operators."""


class _RowDerivation(dict):
    """A map D on a carrier with a row table, memoised by the row codes of
    its argument: ``self[c]`` is the row codes of D at the matrix with row
    codes ``c``.  D runs once per distinct argument: at the point itself
    for a point of :meth:`pair`, otherwise at the carrier's listed object
    with row codes ``c`` once the carrier has been listed, and at a Matrix
    built only then before that.  The points of a sampled pair stream on a
    listed carrier, its units and its draws, are listed objects too, so
    there D meets only listed objects, and a table keyed by them finds
    each key by identity, with nothing allocated.  A point of
    :meth:`pair` or a value off the table raises
    :class:`_OffTable`.

    :meth:`pair` is the pair check of :func:`_operator_pair` on row codes."""

    __slots__ = ("carrier", "rt", "evaluate")

    def __init__(self, carrier, evaluate):
        super().__init__()
        self.carrier, self.rt, self.evaluate = carrier, carrier.row_codes, evaluate

    def __missing__(self, c):
        rt, listed = self.rt, self.carrier._elements
        return self._store(c, rt.matrix(c) if listed is None else listed[rt.index(c)])

    def _store(self, c, x):
        v = self.rt.codes(self.evaluate(x))
        if v is None:
            raise _OffTable
        self[c] = v
        return v

    def at(self, x):
        """D(x) as a Matrix, for the certificate's checks with operators;
        x must lie on the table, as the basis elements and their products
        do."""
        return self.rt.matrix(self[self.rt.codes(x)])

    def additive(self, generators) -> bool:
        """:func:`_additive_on_span` of D over ``generators``, on row codes."""
        rt = self.rt
        return _additive_on_span(
            rt.plus, rt.zero, self.__getitem__, [rt.codes(g) for g in generators]
        )

    def pair(self, x, y) -> Failure | None:
        """The check of :func:`_operator_pair` at (x, y): the row codes of
        x + y, D(x) + D(y), xy and D(x)y + xD(y) from one
        :meth:`adlocal.matrix.RowTable.derivation_pair` pass, compared as
        tuples; a Matrix is built only for a Failure."""
        rt, get = self.rt, self.get
        cx, cy = rt.codes(x), rt.codes(y)
        if cx is None or cy is None:
            raise _OffTable
        dx = get(cx) or self._store(cx, x)
        dy = get(cy) or self._store(cy, y)
        s, ds, p, leibniz = rt.derivation_pair(cx, cy, dx, dy)
        got = self[s]
        if got != ds:
            return Failure((x, y), rt.matrix(ds), rt.matrix(got), "additivity")
        got = self[p]
        if got != leibniz:
            return Failure((x, y), rt.matrix(leibniz), rt.matrix(got), "leibniz")
        return None


def check_derivation(
    D: DerivationMap,
    pair_cap: int = PAIR_CAP,
    pair_samples: int = PAIR_SAMPLE,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Verify additivity and the Leibniz rule on the ordered pairs of
    :func:`_pair_stream` up to the first failing pair; failures are data,
    not errors, and ``checked`` counts the pairs the verdict covers.

    Each pair tests D(x + y) = D(x) + D(y), then D(xy) = D(x)y + xD(y)
    (:func:`_operator_pair`); a Leibniz failure records the right side as
    its expected value.  On a carrier with a row table the check runs on
    row codes (:class:`_RowDerivation`): D is memoised by the row codes of
    its argument and each pair is one row-code pass.  Should a point or a
    value of D leave the table, the whole check starts over on the
    carrier's operators, with a fresh memo and a fresh stream, so its
    report or exception is theirs.  Other carriers use the operators from
    the start.

    A carrier with Z_m coordinates and at most min(ELEMENT_CAP, stream
    length) elements is first certified whole by
    :func:`_certified_derivation`, which evaluates D once per element,
    so never more often than the stream has pairs.  When it holds, every
    pair of the stream passes without being read; when it fails, the
    ordered scan reports the same first failure.  The certificate assumes
    that + and * distribute on the carrier and that D is total on the
    carrier, not only on the domain.
    """
    carrier = D.carrier

    def scan(ev, additive, check_pair):
        pairs, length = _pair_stream(carrier, D.domain, pair_cap, pair_samples, seed, "pairs")
        if (
            _module_rank(carrier) is not None
            and carrier.cardinality <= min(ELEMENT_CAP, length)
            and _certified_derivation(carrier, ev, additive)
        ):
            return VerificationReport(length)
        return _first_failure(pairs, check_pair)

    if carrier.row_codes is not None:
        memo = _RowDerivation(carrier, D.evaluate)
        try:
            return scan(memo.at, memo.additive, memo.pair)
        except _OffTable:
            pass  # a point or a value off the table: start over on the operators
    ev = _Memo(D.evaluate).__getitem__
    additive = partial(_additive_on_span, carrier.add, carrier.zero, ev)
    return scan(ev, additive, partial(_operator_pair, carrier, ev))


def _xgcd(a: int, b: int) -> tuple:
    """(g, s, t) with s*a + t*b = g = gcd(a, b); (b, 0, 1) when b divides a."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


@lru_cache(maxsize=1024)
def _quotient_mask(width: int, shift: int, lanes: int) -> int:
    """The quotient bits of ``lanes`` lanes of ``width`` bits, the low
    width - shift bits of each, for the Barrett step of :class:`_Coordinates`."""
    ones = ((1 << (lanes * width)) - 1) // ((1 << width) - 1)
    return ones * ((1 << (width - shift)) - 1)


class _Coordinates:
    """A carrier as the Z_m-module Z_m^N, with the structure table of its
    commutator in packed form.

    A vector of Z_m entries packs into one int of ``width``-bit lanes, the
    first entry in the most significant lane, so ``bit_length`` finds the
    leading entry.  A lane holds any sum of at most max(N, 2) products of
    two residues, and ``v - (((v * mu) >> shift) & qmask) * m`` takes every
    lane of v mod m at once, for every m (a Barrett multiply-shift-mask):
    with mu = ceil(2^shift / m) and 2^shift >= m times the lane bound,
    floor(x * mu / 2^shift) is exactly floor(x / m), and x * mu still fits
    in its lane, so ``qmask``, the low width - shift bits of each lane,
    cuts out the quotients.

    ``table[l]`` packs the coordinates of [E_k, E_l] for every basis
    element E_k, as N rows of N lanes with row k above row k + 1; the
    coordinates of [E_k, x] are then row k of the sum of x_l * table[l].
    """

    def __init__(self, carrier: Ring, m: int, size: int):
        self.carrier, self.m, self.size = carrier, m, size
        self.zero = carrier.zero if type(carrier) is MatrixRing else None
        bound = max(size, 2) * (m - 1) ** 2
        self.shift = bound.bit_length() + m.bit_length()
        self.mu = -(-(1 << self.shift) // m)
        self.width = width = (bound * self.mu).bit_length()
        self.row_bits = size * width
        basis = _coordinate_basis(carrier)[::-1]
        commutator = carrier.commutator
        # [E_l, E_k] = -[E_k, E_l] and [E_k, E_k] = 0: pack the commutators
        # with k < l and negate their lanes mod m for the mirror entries
        ones = ((1 << self.row_bits) - 1) // ((1 << width) - 1)
        self.qmask = qmask = ones * ((1 << (width - self.shift)) - 1)  # N lanes
        comm = [[0] * size for _ in range(size)]
        for k, ek in enumerate(basis):
            for l in range(k + 1, size):
                v = comm[k][l] = self.pack(commutator(ek, basis[l]))
                w = m * ones - v
                comm[l][k] = w - (((w * self.mu) >> self.shift) & qmask) * m
        self.table = [
            sum(comm[k][l] << ((size - 1 - k) * self.row_bits) for k in range(size))
            for l in range(size)
        ]

    def check_shape(self, *vs):
        """Refuse with ShapeMismatchError each of ``vs`` that is not a
        matrix of the carrier's size over its base ring, the test of
        :meth:`Matrix._check_compatible`; its index would pack into the
        coordinates of a wrong system.  A base-ring carrier has no shape."""
        zero = self.zero
        if zero is not None:
            for v in vs:
                zero._check_compatible(v)

    def pack(self, v) -> int:
        """The coordinates of ``v`` in N lanes."""
        i, m, width = self.carrier.index(v), self.m, self.width
        out = bits = 0
        while i:
            i, d = divmod(i, m)
            out |= d << bits
            bits += width
        return out

    def _image_rows(self, points, low: int) -> list:
        """Row k packs the coordinates of [E_k, x_1], ..., [E_k, x_K] for
        the points with canonical indices ``points``, one block of N lanes
        each, x_1 most significant, above ``low`` blocks of empty lanes."""
        m, size, width = self.m, self.size, self.width
        mu, shift, row_bits, table = self.mu, self.shift, self.row_bits, self.table
        qmask = _quotient_mask(width, shift, size * size)
        row_mask = (1 << row_bits) - 1
        top = len(points) + low - 1
        rows = [0] * size
        for block, i in enumerate(points):
            offset = (top - block) * row_bits
            acc, l = 0, size
            while i:
                l -= 1
                i, d = divmod(i, m)
                if d:
                    acc += d * table[l]
            acc -= (((acc * mu) >> shift) & qmask) * m
            for k in range(size):
                rows[k] |= ((acc >> ((size - 1 - k) * row_bits)) & row_mask) << offset
        return rows

    def _targets(self, targets, low: int) -> int:
        """The coordinates of t_1, ..., t_K packed like one row of
        :meth:`_image_rows`."""
        top, row_bits, v = len(targets) + low - 1, self.row_bits, 0
        for block, t in enumerate(targets):
            v |= self.pack(t) << ((top - block) * row_bits)
        return v

    def _eliminate(self, rows, lanes: int) -> tuple:
        """Weak Howell form ``(prow, pdiv)`` of the span of packed rows of
        ``lanes`` lanes, the one elimination loop of witness search.

        ``prow[pos]`` is the pivot row whose leading lane is ``pos``
        (lowest lane 0) and ``pdiv[pos]`` its pivot, a divisor of m; a lane
        without a pivot has row 0 and pivot m.  The pivot rows right of
        any lane span every combination of the rows that vanishes up to
        that lane (Howell 1986; the elimination follows Storjohann and
        Mulders 1998), so :meth:`_reduce` decides membership in the span.
        """
        m, mu, shift, width = self.m, self.mu, self.shift, self.width
        qmask = _quotient_mask(width, shift, lanes)
        # A lane without a pivot holds the row m * e_pos, zero mod m, so a
        # first row there takes the same gcd step as a row meeting a pivot.
        prow, pdiv = [0] * lanes, [m] * lanes
        for r in rows:
            while r:
                pos = (r.bit_length() - 1) // width
                a, b, p = r >> (pos * width), pdiv[pos], prow[pos]
                if a % b == 0:
                    r += (m - a // b) * p
                else:
                    # unimodular on (r, p): the new pivot is gcd(a, b), and
                    # (m / g) * pivot lies in the span of the remainder and of
                    # the old pivot's (m / b) * p, so no extra row is needed
                    g, s, u = _xgcd(a, b)
                    q = s % m * r + u % m * p
                    prow[pos] = q - (((q * mu) >> shift) & qmask) * m
                    pdiv[pos] = g
                    r = (b // g) % m * r + (m - a // g) * p
                r -= (((r * mu) >> shift) & qmask) * m
        return prow, pdiv

    def _reduce(self, form: tuple, v: int, floor: int) -> int | None:
        """``v`` reduced by the pivot rows of ``form`` in lanes ``floor``
        and up, leaving its lanes below ``floor``; None when a leading
        entry there is not a multiple of its pivot, so that no combination
        of the rows agrees with v on those lanes."""
        prow, pdiv = form
        m, mu, shift, width = self.m, self.mu, self.shift, self.width
        qmask = _quotient_mask(width, shift, len(pdiv))
        while v:
            pos = (v.bit_length() - 1) // width
            if pos < floor:
                break
            a, b = v >> (pos * width), pdiv[pos]
            if a % b:
                return None
            v += (m - a // b) * prow[pos]
            v -= (((v * mu) >> shift) & qmask) * m
        return v

    def echelon(self, points) -> tuple:
        """Weak Howell form ``(prow, pdiv)`` of the system for the points
        with canonical indices ``points``, in order (see :meth:`solve`):
        :meth:`_eliminate` of the rows of :meth:`_image_rows` above one
        block of identity lanes.  ``pdiv`` is bytes when m < 256."""
        size, width = self.size, self.width
        rows = self._image_rows(points, 1)
        for k in range(size):
            rows[k] |= 1 << ((size - 1 - k) * width)
        prow, pdiv = self._eliminate(rows, (len(points) + 1) * size)
        return tuple(prow), bytes(pdiv) if self.m < 256 else tuple(pdiv)

    def solve(self, cons) -> int | None:
        """Canonical index of the minimal b with [b, x] = t for every
        (x, t) in ``cons``, or None.

        Row k of the system is (coordinates of [E_k, x_1], ...,
        [E_k, x_K] | e_k), so the rows span the pairs (bA | b).  They are
        brought to weak Howell form by :meth:`_eliminate`: one pivot row
        per column, whose pivot d divides m, such that the pivot rows
        right of any column span every row combination that vanishes up
        to that column.  Then (t_1 ... t_K | 0) reduces to (0 | -b) for a
        solution b exactly when one exists (:meth:`_reduce`), and
        :meth:`least` takes b to the least element of its coset.

        The solution set does not depend on the order of the
        constraints, so they are taken in canonical order of their points
        x_1 ... x_K.  The form depends on those points alone, not on the
        targets, so it comes from the process-wide cache :func:`_echelon`.
        A reused form is the one a fresh elimination would build, so the
        answer does not depend on the cache.
        """
        m, mu, shift, width = self.m, self.mu, self.shift, self.width
        index = self.carrier.index
        points = [index(x) for x, _ in cons]
        if len(points) > 1:
            points, cons = zip(*sorted(zip(points, cons), key=itemgetter(0)))
        form = _echelon(self, tuple(points))
        v = self._reduce(form, self._targets([t for _, t in cons], 1), self.size)
        if v is None:
            return None
        w = m * (((1 << self.row_bits) - 1) // ((1 << width) - 1)) - v  # b = -v, lanes m - v_k
        return self.least(form, w - (((w * mu) >> shift) & self.qmask) * m)

    def consistent(self, cons) -> bool:
        """True iff some b has [b, x] = t for every (x, t) in ``cons``: the
        targets lie in the span of the image rows of :meth:`solve` alone,
        without its identity lanes.  Decided by one uncached
        :meth:`_eliminate`, which builds no witness and leaves the cache
        :func:`_echelon` untouched."""
        index = self.carrier.index
        rows = self._image_rows([index(x) for x, _ in cons], 0)
        form = self._eliminate(rows, len(cons) * self.size)
        return self._reduce(form, self._targets([t for _, t in cons], 0), 0) is not None

    def least(self, form: tuple, b: int) -> int:
        """Canonical index of the least element of b + C(x_1) ∩ ... ∩ C(x_K),
        for b packed in the N low lanes and ``form`` the Howell form of
        the points x_1 ... x_K (see :meth:`solve`), whose pivot rows in
        the second block span that common centralizer.  Taking each
        coordinate of b mod its pivot, left to right, gives the least
        element of the coset in lexicographic order, which is canonical
        order, whichever member of the coset b is."""
        prow, pdiv = form
        m, mu, shift, qmask, width = self.m, self.mu, self.shift, self.qmask, self.width
        lane_mask = (1 << width) - 1
        found = 0
        for pos in range(self.size - 1, -1, -1):
            digit = (b >> (pos * width)) & lane_mask
            d = pdiv[pos]
            if digit >= d:
                b += (m - digit // d) * prow[pos]
                b -= (((b * mu) >> shift) & qmask) * m
                digit %= d
            found = found * m + digit
        return found


@lru_cache(maxsize=ECHELON_CACHE_FORMS)
def _echelon(coords: _Coordinates, points: tuple) -> tuple:
    """:meth:`_Coordinates.echelon` of the points with canonical indices
    ``points``, in canonical order, kept in a process-wide
    least-recently-used cache of ECHELON_CACHE_FORMS forms;
    ``cache_info()`` counts its eliminations (misses) and reuses (hits)."""
    return coords.echelon(points)


@cache
def _coordinates(carrier: Ring) -> _Coordinates:
    """The coordinates of a carrier, one per carrier object."""
    rank = _module_rank(carrier)
    if rank is None:
        raise PreconditionError(
            f"{carrier.spec} is not built from zmod, poly and mat descriptors; "
            "witness search needs its Z_m coordinates"
        )
    return _Coordinates(carrier, *rank)


def witness_search(carrier: Ring, constraints) -> Matrix | None:
    """Canonically minimal b with b*x - x*b = t for every (x, t) constraint,
    or None when no element satisfies them all.

    The carrier is Z_m^N in the coordinates of :func:`_module_rank`, and
    b -> bx - xb is Z_m-linear, so this is one linear system over Z_m.
    Canonical order is lexicographic order of coordinates, and the
    solution set is a coset b + kernel; reducing a particular solution by
    the Howell form of the kernel (Howell 1986) yields that coset's least
    element, which is exactly the first solution a scan of the carrier in
    canonical order would meet.  The Howell form of the points is reused
    across calls with the same carrier and the same points (see
    :meth:`_Coordinates.solve`), up to ECHELON_CACHE_FORMS forms, and the
    result is the same with or without it.  Carriers that are not built
    from zmod, poly and mat descriptors are refused with
    PreconditionError, and on a matrix carrier a point or target of
    another size or base ring with ShapeMismatchError.
    """
    coords = _coordinates(carrier)
    cons = _constraints(coords, constraints)
    if not cons:
        return carrier.zero
    found = coords.solve(cons)
    return None if found is None else carrier.element(found)


def _constraints(coords: _Coordinates, constraints) -> list:
    """The (x, t) constraints, each once, in order, after the shape test of
    :meth:`_Coordinates.check_shape` on every point and target."""
    cons = []
    for x, t in constraints:
        coords.check_shape(x, t)
        if (x, t) not in cons:
            cons.append((x, t))
    return cons


def _memo_oracle(carrier: Ring, answer, values: _Memo) -> WitnessOracle:
    """Oracle that answers each ordered pair once, by ``answer((x, y))``,
    and carries the map memoised in ``values`` as its induced map."""
    answers = _Memo(answer)
    return WitnessOracle(carrier, lambda x, y: answers[x, y], values.__getitem__)


def pair_oracle(carrier: Ring, evaluate) -> WitnessOracle:
    """Oracle of the map ``evaluate`` built from its values alone: each pair
    gets the canonically minimal element implementing the map at both of
    its points, from :func:`witness_search` on their two constraints.
    Each ordered pair is answered once; the search sorts its constraints,
    so (x, y) and (y, x) share one elimination, and each of them is solved
    once.  The map is evaluated once per point, and the oracle carries it
    as its induced map.  A pair with no common witness raises
    InconsistentOracleError: the map is not 2-local there."""
    values = _Memo(evaluate)

    def answer(pair):
        x, y = pair
        w = witness_search(carrier, [(x, values[x]), (y, values[y])])
        if w is None:
            raise InconsistentOracleError(
                "no element implements the map at both points of a pair"
            )
        return w

    return _memo_oracle(carrier, answer, values)


def adversarial_oracle(a: Matrix, carrier: Ring) -> WitnessOracle:
    """Oracle of the inner derivation of ``a``, carried as its induced map,
    that answers each pair with the canonically minimal implementing
    element, never ``a`` itself unless that happens to be minimal.  The
    elements implementing the map at x and y are a + (C(x) ∩ C(y)), so the
    answer is :meth:`_Coordinates.least` of ``a`` under the form of the
    pair's points: the answer :func:`pair_oracle` gives from the values
    [a, x] and [a, y] alone, found without them.  ``a`` is packed at the
    first answer, which raises any refusal of :func:`witness_search`,
    ShapeMismatchError for an ``a`` of another ring included."""
    index, element = carrier.index, carrier.element
    hidden = None

    def answer(pair):
        nonlocal hidden
        if hidden is None:
            coords = _coordinates(carrier)
            coords.check_shape(a)
            hidden = coords, coords.pack(a)
        coords, b = hidden
        x, y = index(pair[0]), index(pair[1])
        points = (x,) if x == y else (x, y) if x < y else (y, x)
        return element(coords.least(_echelon(coords, points), b))

    return _memo_oracle(carrier, answer, _Memo(partial(carrier.commutator, a)))


def check_two_local(
    D: DerivationMap,
    pair_cap: int = TWO_LOCAL_PAIR_CAP,
    pair_samples: int = TWO_LOCAL_PAIR_SAMPLE,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """For ordered domain pairs (x, y), decide whether one element
    implements the map at both points; pass iff every pair has one, and
    stop at the first pair without one.

    The stream is read lazily, one pair at a time.  Each point is
    evaluated once, when a pair first meets it, and its value is
    shape-checked then.  When the carrier contains the map's ``D.witness``,
    the witness is tested at each point, one commutator per point.  A pair
    passes at once when the witness implements the map at both of its
    points.  It is never trusted: a wrong element or a foreign object
    changes no report, only the work done to reach it.  On M_n(R) over a
    commutative R every inner 2-local derivation is inner, so an inner map
    that carries its element passes with no elimination.

    Any other pair asks :meth:`_Coordinates.consistent`, which decides
    that existence by one uncached elimination and builds no witness, so
    the check leaves the cache :func:`_echelon` as it found it.  Two kinds
    of pair pass without a solve, because a passed pair proves them:
    (y, x) once (x, y) has passed, and (z, z) once some passed pair
    contains z, as a common witness of (x, z) implements the map at z
    alone.  So the report is the one a solve of every pair gives.  The
    carrier's coordinates are built at the first pair, so a stream without
    pairs passes with 0 checked, and refusals are those of
    :func:`witness_search`.

    Additivity of the map is deliberately not required.
    """
    carrier, witness = D.carrier, D.witness
    carried, commutator = carrier.contains(witness), carrier.commutator
    pairs, _ = _pair_stream(carrier, D.domain, pair_cap, pair_samples, seed, "two-local")
    passed, witnessed = set(), set()

    def point(x):
        fx = D.evaluate(x)
        _coordinates(carrier).check_shape(x, fx)
        return fx, carried and commutator(witness, x) == fx

    points = _Memo(point)

    def check_pair(x, y):
        (fx, x_by_witness), (fy, y_by_witness) = points[x], points[y]
        if x_by_witness and y_by_witness or (x, y) in passed or (x == y and x in witnessed):
            return None
        cons = [(x, fx)] if x == y else [(x, fx), (y, fy)]
        if not _coordinates(carrier).consistent(cons):
            return Failure((x, y), (fx, fy), None, "no common witness")
        passed.update(((x, y), (y, x)))
        witnessed.update((x, y))
        return None

    return _first_failure(pairs, check_pair)
