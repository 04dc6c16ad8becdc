"""The three benchmark workloads, their carriers and negative controls.

Importing this module imports adlocal, so the benchmark imports it only
inside the timed cold set-up.  Each workload object is built from the
carriers, a seed and a tracer; ``item(i)`` does the i-th unit of work and
returns True when every verdict it got is the expected one.  Items are
pure functions of (seed, i): the same seed gives the same inputs.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from adlocal import (
    DerivationMap,
    WitnessOracle,
    adversarial_oracle,
    check_derivation,
    check_inner_on_subring,
    check_two_local,
    commutator,
    corner_embed,
    double_derivation,
    extract_witness,
    generate_subring,
    inner_derivation,
    matrix_ring,
    polyquot,
    verification_domain,
    witness_search,
    zmod,
)
from adlocal.matrix import Matrix, block_flatten
from adlocal.sampling import rng_for

CARRIERS = {
    "M2Z2": lambda: matrix_ring(zmod(2), 2),
    "M4Z2": lambda: matrix_ring(zmod(2), 4),
    "M3Z2": lambda: matrix_ring(zmod(2), 3),
    "M2Z4": lambda: matrix_ring(zmod(4), 2),
    "M2Z2t3": lambda: matrix_ring(polyquot(2, 3), 2),
}


def build_carriers(labels, tracer) -> dict:
    """Construct each descriptor (its ring axiom self-test included) and
    enumerate it once: the cold set-up every workload pays."""
    rings = {}
    for label in labels:
        ring = tracer.call(f"rings.matrix_ring.{label}", CARRIERS[label])
        tracer.call(f"rings.elements.{label}", ring.elements)
        rings[label] = ring
    return rings


def _checked(report) -> int:
    return report.checked


def _pick(rng, ring):
    els = ring.elements()
    return els[rng.randrange(len(els))]


def _commutes_with_all(z, xs, zero) -> bool:
    return all(commutator(z, x) == zero for x in xs)


def _table_matches(table, w, xs) -> bool:
    return all(table[x] == commutator(w, x) for x in xs)


def identity_rejected(carrier) -> bool:
    """Negative control: the identity map is neither a derivation nor
    2-local inner, and both checkers must reject it at (e11, e11)."""
    e11 = carrier.units()[0]
    ident = DerivationMap(carrier, lambda x: x, verification_domain(carrier))
    reports = (check_derivation(ident), check_two_local(ident))
    return all(not r.passed and r.failures[0].inputs == (e11, e11) for r in reports)


class ExtendM4:
    """Criterion 4: the 16 corner inner derivations of M2(Z2), doubled
    into M4(Z2) and tabulated over all 65,536 elements.

    Derivations come in a seeded order.  Item k of a derivation checks one
    seeded check_derivation block (the 256 unit pairs, then PAIRS sampled
    pairs) and sweeps the k-th 1/BLOCKS of M4(Z2) against the predicted
    witness block_flatten(diag(b+1, b)); item 0 also tabulates and checks
    the corner restriction.  BLOCKS items sweep the whole carrier once.
    """

    name = "extend-m4"
    carriers = ("M2Z2", "M4Z2")
    BLOCKS = 128
    PAIRS = 400

    def __init__(self, rings, seed, tracer, wrong_witness=False):
        self.corner, self.m4 = rings["M2Z2"], rings["M4Z2"]
        self.seed, self.t, self.wrong = seed, tracer, wrong_witness
        self.order = list(self.corner.elements())
        rng_for(seed, "extend-m4:order").shuffle(self.order)
        self.chunk = self.m4.cardinality // self.BLOCKS
        self.unit_pairs = len(self.m4.units()) ** 2

    def negative_control(self) -> bool:
        return identity_rejected(self.m4)

    def _tabulate(self, b):
        D = inner_derivation(b, self.corner)
        doubled = double_derivation(D)
        return D, doubled, {x: doubled.evaluate(x) for x in self.m4.elements()}

    def _start_derivation(self, b) -> bool:
        corner, t = self.corner, self.t
        D, doubled, table = t.call("extend.tabulate", self._tabulate, b, count=lambda r: len(r[2]))
        w = block_flatten(
            Matrix(corner, ((corner.add(b, corner.one), corner.zero), (corner.zero, b)))
        )
        if self.wrong:
            w = w + self.m4.units()[1]
        self.table, self.w_pred = table, w
        self.ext = DerivationMap(self.m4, table.__getitem__, doubled.domain)
        return all(
            table[corner_embed(v, 4)] == corner_embed(D.evaluate(v), 4)
            for v in corner.elements()
        )

    def item(self, i: int) -> bool:
        d, k = divmod(i, self.BLOCKS)
        restricted = True
        if k == 0:
            restricted = self._start_derivation(self.order[d % len(self.order)])
        t = self.t
        rep = t.call(
            "deriv.check_derivation",
            check_derivation,
            self.ext,
            pair_cap=0,
            pair_samples=self.PAIRS,
            seed=self.seed * 1_000_000 + i,
            count=_checked,
        )
        chunk = self.m4.elements()[k * self.chunk : (k + 1) * self.chunk]
        swept = t.call(
            "matrix.commutator_sweep",
            _table_matches,
            self.table,
            self.w_pred,
            chunk,
            count=lambda _: len(chunk),
        )
        return restricted and swept and rep.passed and rep.checked == self.unit_pairs + self.PAIRS


class WitnessSearch:
    """Criteria 1 and 8: hidden elements recovered through the adversarial
    oracle, on the mod-2 scan (M3(Z2)), the generic scan (M2(Z4)) and the
    only non-Z_m entry arithmetic (M2(Z2[t]/(t^3))), in fixed rotation.

    One hidden element a is one item: extract abar, check that abar - a
    commutes with every matrix unit (over a commutative base that is
    agreement on the whole carrier), and check_two_local the inner
    derivation of a on the four ordered pairs of two seeded elements.

    A search costs roughly the canonical index of the minimal witness,
    which follows the index of a.  So each block of STRATA consecutive
    hidden elements of a carrier takes one from each of STRATA equal
    slices of the canonical order, in seeded order: the uniform draw,
    balanced, so a run's mix of cheap and costly searches does not drift
    with the seed.
    """

    name = "witness-search"
    carriers = ("M3Z2", "M2Z4", "M2Z2t3")  # also the item rotation
    STRATA = 16

    def __init__(self, rings, seed, tracer, wrong_witness=False):
        self.rings, self.seed, self.t, self.wrong = rings, seed, tracer, wrong_witness

    def negative_control(self) -> bool:
        return identity_rejected(self.rings["M3Z2"])

    def _hidden(self, label, j, rng):
        block, pos = divmod(j, self.STRATA)
        strata = list(range(self.STRATA))
        rng_for(self.seed, f"witness-search:strata:{label}:{block}").shuffle(strata)
        els = self.rings[label].elements()
        width = len(els) // self.STRATA
        return els[strata[pos] * width + rng.randrange(width)]

    def item(self, i: int) -> bool:
        j, r = divmod(i, len(self.carriers))
        label = self.carriers[r]
        car, t = self.rings[label], self.t
        rng = rng_for(self.seed, f"witness-search:{i}")
        a = self._hidden(label, j, rng)
        x, y = _pick(rng, car), _pick(rng, car)
        hidden = adversarial_oracle(a, car)
        oracle = WitnessOracle(car, t.wrap("deriv.oracle_select", hidden.select))
        abar = t.call("extract.extract_witness", extract_witness, oracle, car.n)
        if self.wrong:
            abar = abar + car.units()[1]
        units = car.units()
        central = t.call(
            "matrix.commutator_sweep",
            _commutes_with_all,
            car.sub(abar, a),
            units,
            car.zero,
            count=lambda _: len(units),
        )
        seeded = DerivationMap(car, inner_derivation(a, car).evaluate, (x, y), witness=a)
        rep = t.call(
            f"deriv.check_two_local.{label}", check_two_local, seeded, pair_cap=4, count=_checked
        )
        return central and rep.passed and rep.checked == 4


class Closure:
    """Criterion 7: two-generated closures over M2(Z4) and M3(Z2), plus
    <e12, e21> on M2(Z2).

    One (x, y, a) triple is one item: generate_subring, the delta table
    from the oracle, a witness_search for d, and check_inner_on_subring.
    Generator pairs are drawn by seeded rejection into closure-size slots
    that the items visit in fixed rotation; a is drawn afresh per item.
    Two of the ten slots are 128-element closures over M3(Z2), the costliest,
    and two are 32-element ones over M3(Z2), with four cheaper slots below
    them, so the item latency p90 and p50 each fall inside one slot's costs
    instead of on the edge between two.
    """

    name = "closure"
    carriers = ("M2Z2", "M2Z4", "M3Z2")
    SLOTS = (
        ("M3Z2", 128),
        ("M2Z4", 16),
        ("M3Z2", 32),
        ("M2Z2", 16),
        ("M2Z4", 64),
        ("M3Z2", 128),
        ("M3Z2", 16),
        ("M3Z2", 32),
        ("M2Z4", 32),
        ("M2Z4", 64),
    )
    PAIRS_PER_SLOT = 4
    DRAW_CAP = 500

    def __init__(self, rings, seed, tracer, wrong_witness=False):
        self.rings, self.seed, self.t, self.wrong = rings, seed, tracer, wrong_witness
        m2z2 = rings["M2Z2"]
        self.offdiag = (m2z2.units()[1], m2z2.units()[2])
        self.pools = {slot: [] for slot in self.SLOTS}
        self.pools[("M2Z2", 16)].append(self.offdiag)
        for label in ("M3Z2", "M2Z4"):
            self._draw_pairs(label)

    def _draw_pairs(self, label):
        car = self.rings[label]
        pools = [pool for (lab, _), pool in self.pools.items() if lab == label]
        rng = rng_for(self.seed, f"closure:pairs:{label}")
        for _ in range(self.DRAW_CAP):
            if all(len(pool) >= self.PAIRS_PER_SLOT for pool in pools):
                return
            x, y = _pick(rng, car), _pick(rng, car)
            pool = self.pools.get((label, len(generate_subring(x, y, car).elements)))
            if pool is not None and len(pool) < self.PAIRS_PER_SLOT:
                pool.append((x, y))
        raise RuntimeError(f"closure slots of {label} not filled in {self.DRAW_CAP} draws")

    def negative_control(self) -> bool:
        """The identity map on <e12, e21> must be rejected."""
        m2z2 = self.rings["M2Z2"]
        e12, e21 = self.offdiag
        S = generate_subring(e12, e21, m2z2)
        d0 = witness_search(m2z2, [(e12, e12), (e21, e21)])
        return d0 is not None and not check_inner_on_subring(S, {p: p for p in S.elements}, d0).passed

    def item(self, i: int) -> bool:
        label, size = slot = self.SLOTS[i % len(self.SLOTS)]
        pool = self.pools[slot]
        rng = rng_for(self.seed, f"closure:{i}")
        x, y = pool[rng.randrange(len(pool))]
        car, t = self.rings[label], self.t
        a = _pick(rng, car)
        S = t.call(
            "twogen.generate_subring", generate_subring, x, y, car, count=lambda s: len(s.elements)
        )
        hidden = adversarial_oracle(a, car)
        oracle = WitnessOracle(car, t.wrap("deriv.oracle_select", hidden.select))
        delta = {p: oracle.value(p) for p in S.elements}
        d = t.call("deriv.witness_search", witness_search, car, [(x, delta[x]), (y, delta[y])])
        if self.wrong:
            d = d + car.units()[1]
        rep = t.call(
            "twogen.check_inner_on_subring", check_inner_on_subring, S, delta, d, count=_checked
        )
        return len(S.elements) == size and rep.passed


WORKLOADS = {w.name: w for w in (ExtendM4, WitnessSearch, Closure)}


# The carriers whose set-up and Matrix kernel the traced run reports.
LAYER_CARRIERS = ("M4Z2", "M3Z2", "M2Z4", "M2Z2t3")


def matrix_microbench(rings, seed) -> dict:
    """Microseconds per Matrix mul, add and first hash on seeded operands,
    the median over ROUNDS passes of OPERANDS pairs per carrier.  Hash
    runs on fresh copies, because a Matrix caches its hash."""
    OPERANDS, ROUNDS = 256, 5
    out = {}
    for label in LAYER_CARRIERS:
        car = rings[label]
        rng = rng_for(seed, f"microbench:{label}")
        pairs = [(_pick(rng, car), _pick(rng, car)) for _ in range(OPERANDS)]
        times = {"mul": [], "add": [], "hash": []}
        for _ in range(ROUNDS):
            t0 = perf_counter()
            for a, b in pairs:
                a * b
            t1 = perf_counter()
            for a, b in pairs:
                a + b
            t2 = perf_counter()
            fresh = [Matrix(a.ring, a.rows) for a, _ in pairs]
            t3 = perf_counter()
            for m in fresh:
                hash(m)
            t4 = perf_counter()
            times["mul"].append(t1 - t0)
            times["add"].append(t2 - t1)
            times["hash"].append(t4 - t3)
        for op, ts in times.items():
            out[f"matrix.{op}_us.{label}"] = statistics.median(ts) / OPERANDS * 1e6
    return out
