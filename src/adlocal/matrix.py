"""Square matrices over an exact base ring.

Carries the matrix ring M_n(R): matrix units, Pierce components, the
staircase element (ones on the first superdiagonal), commutators, the
flattening of 2x2 matrices over M_m(R) into M_{2m}(R), and the top-left
corner subring with its embed/extract converters.

Indices are 1-based throughout the public API; storage is 0-based.
Matrices are immutable and hashable, so they double as canonical
dictionary keys and as elements of a :class:`MatrixRing`.

A matrix over a small finite base (at most ROW_TABLE_CAP possible rows)
stores one integer per row, its row code: the base-|R| number whose
digits are the canonical indices of the row's entries, first entry most
significant.  Joining the n row codes in base |R|^n gives the matrix's
canonical index.  Arithmetic on such matrices is lookup in per-(R, n)
row tables; above the cap, matrices store their rows and compute entry
by entry with the base ring's operations.

The commutator kernel builds [a, x] = a*x - x*a in a single pass over
row codes, adding the left-scaled rows of ``terms`` for a*x and the
negated ones of ``negterms`` for x*a; above the cap it falls back to the
operators.

The row table also serves loops that keep matrices as tuples of row
codes, so that hashing and comparing them are tuple operations.  A matrix
ring with a row table carries it as ``row_codes``: the pair scan of
:func:`adlocal.deriv.check_derivation` builds x + y, D(x) + D(y), xy and
D(x)y + xD(y) of a pair in one pass of :meth:`RowTable.derivation_pair`,
the coset-tree walks of :mod:`adlocal.deriv` and :mod:`adlocal.twogen`
add with :meth:`RowTable.plus`, :func:`adlocal.twogen.generate_subring`
grows a closure with :meth:`RowTable.plus` and :meth:`RowTable.times`,
and the sampled axiom self-test of :func:`adlocal.rings.ring_axiom_check`
draws with :meth:`RowTable.decode` and computes with :meth:`RowTable.plus`,
:meth:`RowTable.times` and :meth:`RowTable.minus`, all without building
Matrix objects.  The row-code format stays in this module: callers read
and rebuild matrices only through ``RowTable.codes``, ``RowTable.decode``,
``RowTable.index`` and ``RowTable.matrix``.  One caller is the exception:
:func:`adlocal.extend.double_derivation` reads ``Matrix._data``,
``MatrixRing._elements`` and ``RowTable.size`` and builds values with
:func:`_coded` directly.  Its evaluation runs once per point of a doubled
map, and an accessor call there is a measurable cost: one more call per
index (``matrix_index`` through ``RowTable.index``) cost the ``closure``
benchmark workload 1.4%, so the doubled map's loop stays inlined too.

A ring is equal only to itself, so matrices mix only over one base ring
object.  A carrier that has been listed hands out its listed objects from
:meth:`MatrixRing.element` and :meth:`MatrixRing.units`.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import product
from operator import getitem

from .errors import CarrierTooLargeError, DimensionError, ShapeMismatchError
from .rings import PolyQuot, Ring, Zmod, ring_axiom_check

ROW_TABLE_CAP = 256
COORDINATE_CAP = 64


class RowTable:
    """Row codes and row arithmetic for n x n matrices over a finite base.

    ``rows[c]`` is the row with code c and ``code`` inverts it.
    ``add[c][d]`` and ``neg[c]`` are row sum and negation.  ``terms[c]``
    lists, for each nonzero entry x of row c at position k, the pair
    (k, scaled) where ``scaled[d]`` is the row d multiplied by x on the
    left, so that products stay right over non-commutative bases.
    ``negterms[c]`` is the same with ``scaled[d]`` the negation of that
    row, -(x*d), so a difference of products needs no negation pass.

    For loops on row-code tuples, ``codes`` reads the row codes of a
    value, ``matrix`` builds the Matrix back, ``decode`` gives the row
    codes of a canonical index and ``index`` the index of row codes,
    ``zero`` is the zero matrix's codes, and
    :meth:`plus`, :meth:`minus`, :meth:`times` and
    :meth:`derivation_pair` compute on codes; the Matrix product and
    negation are :meth:`times` and :meth:`minus`.
    """

    __slots__ = ("ring", "n", "size", "rows", "code", "add", "neg", "terms", "negterms", "zero")

    def __init__(self, base: Ring, n: int):
        els = base.elements()
        card = len(els)
        index = base.index
        add_t = [[index(base.add(a, b)) for b in els] for a in els]
        mul_t = [[index(base.mul(a, b)) for b in els] for a in els]
        neg_t = [index(base.neg(a)) for a in els]
        digits = tuple(product(range(card), repeat=n))
        of_digits = {d: c for c, d in enumerate(digits)}.__getitem__
        self.ring, self.n, self.zero = base, n, (0,) * n
        self.size = len(digits)
        self.rows = tuple(product(els, repeat=n))
        self.code = {row: c for c, row in enumerate(self.rows)}
        self.add = tuple(
            tuple(of_digits(tuple(map(getitem, map(add_t.__getitem__, d), e))) for e in digits)
            for d in digits
        )
        self.neg = tuple(of_digits(tuple(map(neg_t.__getitem__, d))) for d in digits)
        scale = [
            tuple(of_digits(tuple(map(mul_t[x].__getitem__, d))) for d in digits)
            for x in range(card)
        ]
        negscale = [tuple(map(self.neg.__getitem__, scaled)) for scaled in scale]
        # index 0 is the zero element: it contributes nothing to a product
        self.terms = tuple(tuple((k, scale[x]) for k, x in enumerate(d) if x) for d in digits)
        self.negterms = tuple(
            tuple((k, negscale[x]) for k, x in enumerate(d) if x) for d in digits
        )

    def codes(self, v):
        """The row codes of ``v``, or None when ``v`` is not a matrix on
        this row table."""
        if v.__class__ is Matrix and v._rt is self:
            return v._data
        return None

    def matrix(self, codes: tuple) -> Matrix:
        return _coded(self.ring, self.n, self, codes)

    def decode(self, i: int) -> tuple:
        """The row codes of the matrix with canonical index ``i``: its n
        base-``size`` digits, first row most significant."""
        size, codes = self.size, []
        for _ in range(self.n):
            i, c = divmod(i, size)
            codes.append(c)
        codes.reverse()
        return tuple(codes)

    def index(self, codes: tuple) -> int:
        """The canonical index of the matrix with row codes ``codes``, the
        inverse of :meth:`decode`.  Each row adds its code times its place
        value, so the index of a matrix is the sum of the indices of its
        row bands, each padded with zero rows (row code 0)."""
        size, acc = self.size, 0
        for c in codes:
            acc = acc * size + c
        return acc

    def plus(self, c: tuple, d: tuple) -> tuple:
        add = self.add
        return tuple([add[p][q] for p, q in zip(c, d)])

    def minus(self, c: tuple) -> tuple:
        """The row codes of the negation."""
        return tuple(map(self.neg.__getitem__, c))

    def times(self, c: tuple, d: tuple) -> tuple:
        """The row codes of the product: row i is the sum over k of
        c_ik * (row k of d), each term a left-scaled row of ``terms``."""
        add, terms = self.add, self.terms
        out = []
        for p in c:
            acc = 0
            for k, scaled in terms[p]:
                acc = add[acc][scaled[d[k]]]
            out.append(acc)
        return tuple(out)

    def derivation_pair(self, x: tuple, y: tuple, dx: tuple, dy: tuple) -> tuple:
        """The row codes of x + y, dx + dy, x*y and dx*y + x*dy, each row
        of the two products in one pass over the left-scaled rows of
        ``terms``."""
        add, terms = self.add, self.terms
        total, dtotal, prod, leib = [], [], [], []
        for p, q, a, b in zip(x, dx, y, dy):
            total.append(add[p][a])
            dtotal.append(add[q][b])
            acc = lacc = 0
            for k, scaled in terms[p]:
                acc = add[acc][scaled[y[k]]]
                lacc = add[lacc][scaled[dy[k]]]
            for k, scaled in terms[q]:
                lacc = add[lacc][scaled[y[k]]]
            prod.append(acc)
            leib.append(lacc)
        return tuple(total), tuple(dtotal), tuple(prod), tuple(leib)


@cache
def row_table(base: Ring, n: int) -> RowTable | None:
    """The row table of M_n(base), one per base ring object and n, or
    None above ROW_TABLE_CAP."""
    if base.cardinality**n > ROW_TABLE_CAP:
        return None
    return RowTable(base, n)


_new = object.__new__


class Matrix:
    """Immutable n x n matrix over a base ring.

    ``_data`` holds the row codes when ``_rt`` is the row table of
    M_n(ring), and the row tuples themselves when there is none.  The
    constructor refuses rows that are not n canonical entries of the ring
    with ValueError; values the library computes skip that check
    (:func:`_coded`).
    """

    __slots__ = ("ring", "n", "_rt", "_data", "_hash")

    def __init__(self, ring: Ring, rows: tuple):
        n = len(rows)
        rt = row_table(ring, n)
        if rt is not None:
            data = tuple(map(rt.code.get, rows))
            canonical = None not in data
        else:
            data = rows
            canonical = all(len(row) == n and all(map(ring.contains, row)) for row in rows)
        if not canonical:
            raise ValueError(f"{rows!r} are not canonical rows over {ring.spec}")
        self.ring, self.n, self._rt, self._data, self._hash = ring, n, rt, data, None

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of row tuples."""
        rt = self._rt
        if rt is None:
            return self._data
        return tuple(map(rt.rows.__getitem__, self._data))

    def entry(self, i: int, j: int):
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def _check_compatible(self, other):
        if not isinstance(other, Matrix):
            raise ShapeMismatchError(f"expected a Matrix, got {other!r}")
        if self.n != other.n or self.ring is not other.ring:
            raise ShapeMismatchError(
                f"operands live in M_{self.n}({self.ring.spec}) and "
                f"M_{other.n}({other.ring.spec})"
            )

    # Row tables are one per (base ring object, n), so sharing one is
    # the compatibility check of the fast paths.  Row code 0 is the zero row.

    def __add__(self, other):
        rt = self._rt
        if rt is not None and other.__class__ is Matrix and other._rt is rt:
            add = rt.add
            codes = tuple([add[c][d] for c, d in zip(self._data, other._data)])
            return _coded(self.ring, self.n, rt, codes)
        self._check_compatible(other)
        add = self.ring.add
        rows = tuple(tuple(map(add, r, s)) for r, s in zip(self.rows, other.rows))
        return _computed(self.ring, rows)

    def __neg__(self):
        rt = self._rt
        if rt is not None:
            return _coded(self.ring, self.n, rt, rt.minus(self._data))
        neg = self.ring.neg
        return _coded(self.ring, self.n, None, tuple(tuple(map(neg, r)) for r in self._data))

    def __sub__(self, other):
        rt = self._rt
        if rt is not None and other.__class__ is Matrix and other._rt is rt:
            add, neg = rt.add, rt.neg
            codes = tuple([add[c][neg[d]] for c, d in zip(self._data, other._data)])
            return _coded(self.ring, self.n, rt, codes)
        self._check_compatible(other)
        return self + (-other)

    def __mul__(self, other):
        rt = self._rt
        if rt is not None and other.__class__ is Matrix and other._rt is rt:
            return _coded(self.ring, self.n, rt, rt.times(self._data, other._data))
        self._check_compatible(other)
        ring = self.ring
        add, rmul, zero = ring.add, ring.mul, ring.zero
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            line = []
            for col in cols:
                acc = zero
                for x, y in zip(row, col):
                    acc = add(acc, rmul(x, y))
                line.append(acc)
            out.append(tuple(line))
        return _computed(ring, tuple(out))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Matrix):
            return False
        rt = self._rt
        if rt is not None and other._rt is rt:
            return self._data == other._data
        return self.n == other.n and self.ring is other.ring and self.rows == other.rows

    def __ne__(self, other):
        rt = self._rt
        if rt is not None and other.__class__ is Matrix and other._rt is rt:
            return self._data != other._data
        return not self.__eq__(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self._data)
        return h

    def __repr__(self):
        body = ",".join("[" + ",".join(self.ring.el_str(x) for x in r) + "]" for r in self.rows)
        return f"[{body}]@{self.ring.spec}"


def _coded(ring: Ring, n: int, rt: RowTable | None, codes: tuple) -> Matrix:
    """A matrix straight from its row codes on ``rt``, or from its rows
    when ``rt`` is None, unchecked."""
    x = _new(Matrix)
    x.ring, x.n, x._rt, x._data, x._hash = ring, n, rt, codes, None
    return x


def _computed(ring: Ring, rows: tuple) -> Matrix:
    """A matrix from rows the library computed: coded on the row table of
    its size, kept unchecked above ROW_TABLE_CAP."""
    n = len(rows)
    if row_table(ring, n) is None:
        return _coded(ring, n, None, rows)
    return Matrix(ring, rows)


def zero_matrix(ring: Ring, n: int) -> Matrix:
    z = ring.zero
    return Matrix(ring, tuple((z,) * n for _ in range(n)))


def identity_matrix(ring: Ring, n: int) -> Matrix:
    z, o = ring.zero, ring.one
    return Matrix(ring, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))


def matrix_unit(ring: Ring, n: int, i: int, j: int) -> Matrix:
    """The unit e_ij: one at 1-based (i, j), zero elsewhere."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"matrix unit ({i},{j}) outside 1..{n}")
    z, o = ring.zero, ring.one
    rows = tuple(
        tuple(o if (r == i - 1 and c == j - 1) else z for c in range(n))
        for r in range(n)
    )
    return Matrix(ring, rows)


def pierce_component(x: Matrix, i: int, j: int) -> Matrix:
    """e_ii * x * e_jj: keeps entry (i, j), zeros everywhere else."""
    if not (1 <= i <= x.n and 1 <= j <= x.n):
        raise IndexError(f"component ({i},{j}) outside 1..{x.n}")
    z = x.ring.zero
    kept = x.rows[i - 1][j - 1]
    rows = tuple(
        tuple(kept if (r == i - 1 and c == j - 1) else z for c in range(x.n))
        for r in range(x.n)
    )
    return Matrix(x.ring, rows)


def staircase(ring: Ring, n: int) -> Matrix:
    """Sum of the first-superdiagonal units e_12 + e_23 + ... + e_{n-1,n}."""
    if n < 2:
        raise DimensionError("staircase element needs dimension at least 2")
    z, o = ring.zero, ring.one
    rows = tuple(
        tuple(o if c == r + 1 else z for c in range(n)) for r in range(n)
    )
    return Matrix(ring, rows)


def commutator(a: Matrix, x: Matrix) -> Matrix:
    """[a, x] = a*x - x*a, in one row-code pass when a and x share a row
    table; any other operands take ``a * x - x * a``.

    Row i is the sum over k of a_ik * (row k of x), from ``terms``, then
    the sum over k of -(x_ik * (row k of a)), from ``negterms``.  Both
    scale on the left, so the result is right over non-commutative bases.
    """
    rt = a._rt
    if rt is not None and x.__class__ is Matrix and x._rt is rt:
        add, terms, negterms = rt.add, rt.terms, rt.negterms
        ours, theirs = a._data, x._data
        out = []
        for p, q in zip(ours, theirs):
            acc = 0
            for k, scaled in terms[p]:
                acc = add[acc][scaled[theirs[k]]]
            for k, scaled in negterms[q]:
                acc = add[acc][scaled[ours[k]]]
            out.append(acc)
        return _coded(a.ring, a.n, rt, tuple(out))
    return a * x - x * a


def matrix_index(x: Matrix) -> int:
    """Canonical integer: row-major base-|R| digits, entry (1,1) most significant."""
    rt = x._rt
    acc = 0
    if rt is not None:
        # RowTable.index, inlined: one call less on the oracle and
        # witness-search paths, which index every point they meet
        size = rt.size
        for c in x._data:
            acc = acc * size + c
        return acc
    base = x.ring
    card, index = base.cardinality, base.index
    for row in x._data:
        for v in row:
            acc = acc * card + index(v)
    return acc


def matrix_to_strings(x: Matrix) -> list:
    """Rows of canonical entry strings, the report/CLI literal format."""
    s = x.ring.el_str
    return [[s(v) for v in row] for row in x.rows]


class MatrixRing(Ring):
    """M_n(R) as a ring descriptor; elements are Matrix values."""

    def __init__(self, base: Ring, n: int):
        if n < 1:
            raise ValueError("matrix ring dimension must be at least 1")
        self.base = base
        self.n = n
        self.spec = f"mat:{base.spec}:{n}"
        rank = _module_rank(self)
        if rank is not None and rank[1] > COORDINATE_CAP:
            raise CarrierTooLargeError(
                f"{self.spec} has {rank[1]} Z_{rank[0]} coordinates; "
                f"at most {COORDINATE_CAP} are supported"
            )
        self.cardinality = base.cardinality ** (n * n)
        self.commutative_declared = n == 1 and base.commutative_declared
        self.row_codes = row_table(base, n)
        self._zero = zero_matrix(base, n)
        self._one = identity_matrix(base, n)
        self._units = tuple(
            matrix_unit(base, n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)
        )

    # the Matrix operators themselves, with no Python frame in between
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    sub = staticmethod(operator.sub)
    commutator = staticmethod(commutator)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def index(self, a):
        return matrix_index(a)

    def element(self, i):
        """The element with canonical index ``i``, after a range check:
        the carrier's own object from :meth:`elements` once it has been
        listed, a Matrix decoded from ``i`` before that."""
        if not 0 <= i < self.cardinality:
            raise IndexError(f"no element {i} in {self.spec}")
        listed = self._elements
        if listed is not None:
            return listed[i]
        base, n, rt = self.base, self.n, self.row_codes
        if rt is not None:
            return _coded(base, n, rt, rt.decode(i))
        card = base.cardinality
        digits = []
        for _ in range(n * n):
            i, d = divmod(i, card)
            digits.append(base.element(d))
        digits.reverse()
        return _coded(base, n, None, tuple(tuple(digits[r * n : (r + 1) * n]) for r in range(n)))

    def _listed(self):
        rt = self.row_codes
        if rt is None:
            return super()._listed()
        # itertools.product varies the last slot fastest, which is exactly
        # ascending canonical order with row 1 most significant.
        base, n = self.base, self.n
        listed = tuple(_coded(base, n, rt, c) for c in product(range(rt.size), repeat=n))
        # from here on the units are listed objects too, as the pair streams read them
        self._units = tuple([listed[rt.index(u._data)] for u in self._units])
        return listed

    def contains(self, a):
        """Whether ``a`` is an element: at once for a Matrix on this
        carrier's row table; otherwise a Matrix of size n over this
        carrier's base ring object whose entries the base contains."""
        rt = self.row_codes
        if rt is not None and a.__class__ is Matrix and a._rt is rt:
            return True
        return (
            isinstance(a, Matrix)
            and a.n == self.n
            and a.ring is self.base
            and all(self.base.contains(v) for row in a.rows for v in row)
        )

    def el_str(self, a):
        s = self.base.el_str
        return "[" + ",".join("[" + ",".join(s(v) for v in row) + "]" for row in a.rows) + "]"

    def units(self) -> tuple:
        """All matrix units in row-major order e_11, e_12, ..., e_nn: the
        carrier's own objects from :meth:`elements` once it has been listed
        with a row table."""
        return self._units


def _module_rank(carrier: Ring) -> tuple | None:
    """(m, N) such that the carrier's additive group is Z_m^N, or None when
    the carrier is not built from zmod, poly and mat descriptors.

    The coordinates of an element are the N base-m digits of its canonical
    index, most significant first: a matrix index joins its entries'
    indices row-major, and a truncated polynomial's index has its leading
    coefficient most significant, so addition is digitwise mod m.
    """
    size, ring = 1, carrier
    while type(ring) is MatrixRing:
        size *= ring.n * ring.n
        ring = ring.base
    if type(ring) is Zmod:
        return ring.modulus, size
    if type(ring) is PolyQuot:
        return ring.modulus, size * ring.degree
    return None


@cache
def matrix_ring(base: Ring, n: int) -> MatrixRing:
    """M_n(R) descriptor, one per base ring object and n, axiom-checked on
    first construction.

    :class:`MatrixRing` refuses a carrier of more than COORDINATE_CAP Z_m
    coordinates with CarrierTooLargeError before anything is built.
    """
    ring = MatrixRing(base, n)
    ring_axiom_check(ring)
    return ring


def block_flatten(b: Matrix) -> Matrix:
    """The flat 2m x 2m matrix over R of a 2x2 matrix over M_m(R): block
    (I, J) lands at rows (I-1)m+1..Im and columns (J-1)m+1..Jm.  This is
    the ring isomorphism M_2(M_m(R)) -> M_2m(R)."""
    if not isinstance(b.ring, MatrixRing):
        raise ShapeMismatchError("block_flatten needs a matrix over a matrix ring")
    first = b.rows[0][0]
    rows = []
    for line in b.rows:
        line_rows = [blk.rows for blk in line]
        for r in range(first.n):
            rows.append(tuple(v for blk_rows in line_rows for v in blk_rows[r]))
    return _computed(first.ring, tuple(rows))


def corner_extract(x: Matrix, m: int) -> Matrix:
    """Top-left m x m submatrix as an element of M_m(R)."""
    if m > x.n:
        raise ShapeMismatchError(f"corner size {m} exceeds dimension {x.n}")
    rt = x._rt
    if rt is not None:
        # the first m digits of a row code are the code of its first m entries
        small = row_table(x.ring, m)
        shift = rt.size // small.size
        return _coded(x.ring, m, small, tuple([c // shift for c in x._data[:m]]))
    return _computed(x.ring, tuple([row[:m] for row in x._data[:m]]))


def corner_embed(x: Matrix, n: int) -> Matrix:
    """Place an m x m matrix in the top-left corner of an n x n zero matrix."""
    if x.n > n:
        raise ShapeMismatchError(f"cannot embed dimension {x.n} into {n}")
    big = row_table(x.ring, n)
    if big is not None:
        # trailing zero digits pad each row code; row code 0 is the zero row
        shift = big.size // x._rt.size
        return _coded(x.ring, n, big, tuple([c * shift for c in x._data]) + (0,) * (n - x.n))
    pad = (x.ring.zero,) * (n - x.n)
    rows = tuple([row + pad for row in x.rows]) + ((x.ring.zero,) * n,) * (n - x.n)
    return _coded(x.ring, n, None, rows)
