"""Finite base rings with exact arithmetic and a canonical element order.

Every ring here is a finite associative unital ring, equal only to itself:
two ring objects with one spec are two rings.  The caches keyed by a ring
(``functools.cache``) hold each ring for the life of the process, as the
interned factories :func:`zmod` and :func:`polyquot` do.  Elements are
plain hashable Python values (ints for residues, coefficient tuples for
truncated polynomials, Matrix values for matrix rings), arithmetic is
exact, and each ring fixes a canonical total order through
``index``/``element`` with the zero element at index 0.  The canonical
order is what makes "minimal witness" well defined everywhere else in the
package.

Every descriptor passes :func:`ring_axiom_check` when it is built.  A
small ring is checked on all triples; a matrix ring over a ring so
checked, or over such a matrix ring, needs no test of its own, because
M_n(R) is a ring whenever R is one; any other ring is tested on a seeded
sample of triples.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache

from .errors import CarrierTooLargeError

AXIOM_EXHAUSTIVE_CAP = 100
AXIOM_SAMPLE_TRIPLES = 10_000
COMMUTATIVITY_EXHAUSTIVE_CAP = 10_000
ENUMERATION_CAP = 1 << 17


class Ring:
    """Finite associative unital ring with exact arithmetic and canonical
    order, equal only to itself.

    Subclasses provide the primitive operations.  Ring objects and their
    elements are immutable values, safe to share between workers; all
    operations are pure.
    """

    spec: str
    cardinality: int
    commutative_declared: bool
    # the row table of a matrix ring that has one
    # (adlocal.matrix.RowTable); None for every other ring
    row_codes = None
    # the tuple of elements() once listed
    _elements = None

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def index(self, a) -> int:
        """Position of ``a`` in the canonical order."""
        raise NotImplementedError

    def element(self, i: int):
        """Inverse of :meth:`index`."""
        raise NotImplementedError

    def contains(self, a) -> bool:
        raise NotImplementedError

    def el_str(self, a) -> str:
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def commutator(self, a, x):
        """[a, x] = a*x - x*a; matrix rings use one fused kernel."""
        return self.sub(self.mul(a, x), self.mul(x, a))

    def elements(self) -> tuple:
        """All elements in canonical order; cached after the first call."""
        cached = self._elements
        if cached is None:
            card = self.cardinality
            if card > ENUMERATION_CAP:
                raise CarrierTooLargeError(
                    f"{self.spec} has {card} elements; refusing to enumerate"
                )
            cached = self._elements = self._listed()
        return cached

    def _listed(self) -> tuple:
        """All elements in canonical order, listed afresh; subclasses may
        list them faster."""
        return tuple(map(self.element, range(self.cardinality)))

    def __repr__(self):
        return f"<ring {self.spec}>"


class Zmod(Ring):
    """Integers modulo m, elements represented by residues 0..m-1."""

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus
        self.spec = f"zmod:{modulus}"
        self.cardinality = modulus
        self.commutative_declared = True

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def index(self, a):
        return a

    def element(self, i):
        if not 0 <= i < self.modulus:
            raise IndexError(f"no element {i} in {self.spec}")
        return i

    def contains(self, a):
        return isinstance(a, int) and 0 <= a < self.modulus

    def el_str(self, a):
        return str(a)


class PolyQuot(Ring):
    """Truncated polynomial ring Z_m[t]/(t^k).

    Elements are coefficient tuples (constant term first); a commutative
    ring with nontrivial nilpotents as soon as k > 1.  Canonical order is
    by the base-m integer with the leading coefficient most significant,
    so enumeration runs 0, 1, ..., m-1, t, t+1, ...
    """

    def __init__(self, modulus: int, degree: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if degree < 1:
            raise ValueError("truncation degree must be at least 1")
        self.modulus = modulus
        self.degree = degree
        self.spec = f"poly:{modulus}:{degree}"
        self.cardinality = modulus**degree
        self.commutative_declared = True
        self._zero = (0,) * degree
        self._one = (1,) + (0,) * (degree - 1)

    def add(self, a, b):
        m = self.modulus
        return tuple((x + y) % m for x, y in zip(a, b))

    def neg(self, a):
        m = self.modulus
        return tuple(-x % m for x in a)

    def mul(self, a, b):
        m, k = self.modulus, self.degree
        out = [0] * k
        for i, ai in enumerate(a):
            if ai:
                for j in range(k - i):
                    out[i + j] += ai * b[j]
        return tuple(c % m for c in out)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def index(self, a):
        m = self.modulus
        acc = 0
        for c in reversed(a):
            acc = acc * m + c
        return acc

    def element(self, i):
        if not 0 <= i < self.cardinality:
            raise IndexError(f"no element {i} in {self.spec}")
        m = self.modulus
        coeffs = []
        for _ in range(self.degree):
            i, c = divmod(i, m)
            coeffs.append(c)
        return tuple(coeffs)

    def contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == self.degree
            and all(isinstance(c, int) and 0 <= c < self.modulus for c in a)
        )

    def el_str(self, a):
        terms = []
        for power in range(self.degree - 1, -1, -1):
            c = a[power]
            if c == 0:
                continue
            if power == 0:
                terms.append(str(c))
            else:
                var = "t" if power == 1 else f"t^{power}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"


@cache
def is_commutative(ring: Ring) -> bool:
    """Decide commutativity: exhaustive pairwise check for small rings.

    Rings above the exhaustive cap answer with the declared flag.  The
    verdict is cached per ring object.
    """
    if ring.cardinality > COMMUTATIVITY_EXHAUSTIVE_CAP:
        return ring.commutative_declared
    els, mul = ring.elements(), ring.mul
    return all(mul(a, b) == mul(b, a) for a in els for b in els)


def _exhaustive_axiom_check(ring: Ring) -> tuple:
    """The axiom check over all triples of a ring of at most
    AXIOM_EXHAUSTIVE_CAP elements, by its tables of listing positions,
    which it returns: the sum table and the product table.  The zero law
    comes after every other identity."""
    card = ring.cardinality
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero, one = ring.zero, ring.one
    els = ring.elements()
    pos = {a: i for i, a in enumerate(els)}
    add_t = [[pos[add(a, b)] for b in els] for a in els]
    mul_t = [[pos[mul(a, b)] for b in els] for a in els]
    for i, a in enumerate(els):
        if mul(one, a) != a or mul(a, one) != a:
            raise ValueError(f"{ring.spec}: unit law fails at {a!r}")
        if add(a, neg(a)) != zero:
            raise ValueError(f"{ring.spec}: additive inverse fails at {a!r}")
        arow_a, mrow_a = add_t[i], mul_t[i]
        for j in range(card):
            if arow_a[j] != add_t[j][i]:
                raise ValueError(f"{ring.spec}: addition not commutative")
            arow_ab, mrow_ab = add_t[arow_a[j]], mul_t[mrow_a[j]]
            arow_b, mrow_b = add_t[j], mul_t[j]
            for k in range(card):
                if arow_ab[k] != arow_a[arow_b[k]]:
                    raise ValueError(f"{ring.spec}: addition not associative")
                if mrow_ab[k] != mrow_a[mrow_b[k]]:
                    raise ValueError(f"{ring.spec}: multiplication not associative")
                if mrow_a[arow_b[k]] != add_t[mrow_a[j]][mrow_a[k]]:
                    raise ValueError(f"{ring.spec}: left distributivity fails")
                if mul_t[arow_a[j]][k] != add_t[mrow_a[k]][mrow_b[k]]:
                    raise ValueError(f"{ring.spec}: right distributivity fails")
    for a in els:
        if add(a, zero) != a:
            raise ValueError(f"{ring.spec}: zero law fails at {a!r}")
    return add_t, mul_t


@cache
def _proven(ring: Ring) -> bool:
    """Whether the ring axioms of ``ring`` hold without a sampled test;
    the verdict is cached per ring object.

    A ring of at most AXIOM_EXHAUSTIVE_CAP elements is proven when its
    exhaustive check passes and its listing is canonical: element i has
    index i, zero is element 0, and every sum, product and negation of
    listed elements has the index of its place in the listing, so the
    tables a RowTable builds through ``index`` are the tables the check
    read.  A :class:`~adlocal.matrix.MatrixRing` over a proven base is
    proven, since M_n(R) is a ring whenever R is one, and its own listing
    is canonical by construction.  No other ring is.  A ring that fails
    its check, or whose sums or products leave its listing, is not
    proven: the check's loop, not the verdict, reports why.
    """
    from .matrix import MatrixRing

    if type(ring) is MatrixRing:
        return _proven(ring.base)
    if ring.cardinality > AXIOM_EXHAUSTIVE_CAP:
        return False
    try:
        checked = _exhaustive_axiom_check(ring)
    except (ValueError, KeyError):
        return False
    els, index = ring.elements(), ring.index
    pos = {a: i for i, a in enumerate(els)}.get
    add_t, mul_t, neg_t = _op_tables(ring)
    return (
        list(map(index, els)) == list(range(len(els)))
        and pos(ring.zero) == 0
        and (add_t, mul_t) == checked
        and neg_t == [pos(ring.neg(a)) for a in els]
    )


def _op_tables(ring: Ring) -> tuple:
    """The sum and product tables and the negation list of the listed
    elements of ``ring``, each result given by its ``index``."""
    els, index, add, mul = ring.elements(), ring.index, ring.add, ring.mul
    return (
        [[index(add(a, b)) for b in els] for a in els],
        [[index(mul(a, b)) for b in els] for a in els],
        [index(ring.neg(a)) for a in els],
    )


def ring_axiom_check(ring: Ring) -> None:
    """Self-test run once per descriptor: associativity, distributivity,
    unit laws, additive inverses, additive commutativity and the zero law
    a + 0 = a.

    A proven ring (:func:`_proven`) passes at once: a matrix ring over a
    proven base, such as every M_n of a zmod, polyquot or matrix ring,
    draws nothing.  Any other ring is tested exhaustively over all
    triples up to AXIOM_EXHAUSTIVE_CAP elements, and on a fixed-seed
    sample of AXIOM_SAMPLE_TRIPLES triples beyond that.  Raises
    ValueError on the first violated axiom; misconfigured custom rings
    fail here instead of poisoning downstream checks.  On a matrix ring
    with a row table (``row_codes``) the sample runs on row codes: each
    drawn index goes straight to row codes by ``RowTable.decode``, the
    decoder of ``MatrixRing.element``, the identities use
    ``RowTable.plus``, ``times`` and ``minus``, the arithmetic of the
    Matrix operators without building a Matrix, and a message prints the
    element as its Matrix.
    """
    if _proven(ring):
        return
    if ring.cardinality <= AXIOM_EXHAUSTIVE_CAP:
        _exhaustive_axiom_check(ring)
        return

    card = ring.cardinality
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero, one = ring.zero, ring.one

    rng = random.Random(f"ring-axioms:{ring.spec}")
    rt = ring.row_codes
    if rt is None:
        draw, shown = ring.element, repr
    else:
        # the same draws and identities on row codes, printed as matrices
        add, mul, neg, draw = rt.plus, rt.times, rt.minus, rt.decode
        zero, one = rt.codes(zero), rt.codes(one)

        def shown(a):
            return repr(rt.matrix(a))

    for _ in range(AXIOM_SAMPLE_TRIPLES):
        a = draw(rng.randrange(card))
        b = draw(rng.randrange(card))
        c = draw(rng.randrange(card))
        ab_sum, bc_sum = add(a, b), add(b, c)
        if add(ab_sum, c) != add(a, bc_sum):
            raise ValueError(f"{ring.spec}: addition not associative")
        if ab_sum != add(b, a):
            raise ValueError(f"{ring.spec}: addition not commutative")
        ab, bc = mul(a, b), mul(b, c)
        if mul(ab, c) != mul(a, bc):
            raise ValueError(f"{ring.spec}: multiplication not associative")
        ac = mul(a, c)
        if mul(a, bc_sum) != add(ab, ac):
            raise ValueError(f"{ring.spec}: left distributivity fails")
        if mul(ab_sum, c) != add(ac, bc):
            raise ValueError(f"{ring.spec}: right distributivity fails")
        if mul(one, a) != a or mul(a, one) != a:
            raise ValueError(f"{ring.spec}: unit law fails at {shown(a)}")
        if add(a, neg(a)) != zero:
            raise ValueError(f"{ring.spec}: additive inverse fails at {shown(a)}")
        if add(a, zero) != a:
            raise ValueError(f"{ring.spec}: zero law fails at {shown(a)}")


@lru_cache(maxsize=None)
def zmod(modulus: int) -> Zmod:
    """Interned Z_m descriptor, axiom-checked on first construction."""
    ring = Zmod(modulus)
    ring_axiom_check(ring)
    return ring


@lru_cache(maxsize=None)
def polyquot(modulus: int, degree: int) -> PolyQuot:
    """Interned Z_m[t]/(t^k) descriptor, axiom-checked on first construction."""
    ring = PolyQuot(modulus, degree)
    ring_axiom_check(ring)
    return ring


def parse_ring_spec(spec: str) -> Ring:
    """Parse ``zmod:<m>``, ``poly:<m>:<k>`` or ``mat:<inner-spec>:<n>``."""
    tokens = spec.strip().split(":")
    try:
        if tokens[0] == "zmod" and len(tokens) == 2:
            return zmod(int(tokens[1]))
        if tokens[0] == "poly" and len(tokens) == 3:
            return polyquot(int(tokens[1]), int(tokens[2]))
        if tokens[0] == "mat" and len(tokens) >= 3:
            from .matrix import matrix_ring

            inner = parse_ring_spec(":".join(tokens[1:-1]))
            return matrix_ring(inner, int(tokens[-1]))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad ring spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad ring spec {spec!r}")
