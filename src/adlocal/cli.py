"""Batch experiment harness with deterministic JSON reports.

Each experiment configures one carrier M_n(R), runs a verification suite
up to its first failure, and emits a single JSON document with the fixed
key order config, status, checks, failures, witnesses, seed, elapsed_ms.
Two runs with the same config produce identical bytes except elapsed_ms.

Exit codes: 0 pass, 2 verification failure (a mathematical counterexample),
3 configuration error, 4 report I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields

from .deriv import (
    PAIR_SAMPLE,
    TWO_LOCAL_PAIR_SAMPLE,
    DerivationMap,
    _coordinate_basis,
    adversarial_oracle,
    check_derivation,
    check_two_local,
    inner_derivation,
    verification_domain,
    verification_elements,
    witness_search,
)
from .errors import AdlocalError, InconsistentOracleError, VerificationFailedError
from .extend import (
    extend_derivation_to_n,
    extend_extract_compress,
    extend_two_local_to_n,
)
from .extract import (
    collect_unit_witnesses,
    extract_witness,
    verify_diagonal_differences,
    verify_unit_image_formula,
)
from .matrix import (
    Matrix,
    commutator,
    corner_embed,
    matrix_ring,
    matrix_to_strings,
    matrix_unit,
    staircase,
)
from .rings import parse_ring_spec
from .sampling import _draws
from .twogen import check_inner_on_subring, generate_subring

EXHAUSTIVE_WITNESS_CAP = 512
# largest value of any budget flag: ten times the largest budget a default,
# a golden report or the battery uses, so a larger request exits 3 at once
BUDGET_CAP = 1_000_000


@dataclass
class ExperimentConfig:
    ring: str
    n: int
    experiment: str
    seed: int = 0
    pair_samples: int = PAIR_SAMPLE
    two_local_pairs: int = TWO_LOCAL_PAIR_SAMPLE
    witness_samples: int = 100
    gen_pairs: int = 50
    force: bool = False


# budget fields of ExperimentConfig that must be positive; with gen_pairs,
# which may be 0, each is a CLI flag of the same name
_SAMPLE_BUDGETS = ("pair_samples", "two_local_pairs", "witness_samples")


def _flag(name):
    return "--" + name.replace("_", "-")


@dataclass
class RunReport:
    config: dict
    status: str
    checks: int
    failures: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    seed: int = 0
    elapsed_ms: int = 0


class CliConfigError(Exception):
    pass


def _ser(value):
    if isinstance(value, Matrix):
        return matrix_to_strings(value)
    if isinstance(value, (tuple, list)):
        return [_ser(v) for v in value]
    if value is None or isinstance(value, (str, int)):
        return value
    return str(value)


def _fail_record(inputs, expected, got, note):
    return {"inputs": _ser(inputs), "expected": _ser(expected), "got": _ser(got), "note": note}


def _report_failures(report):
    return [_fail_record(f.inputs, f.expected, f.got, f.note) for f in report.failures]


# Each runner yields steps (checks, failure records, witness or None);
# run() sums them and stops at the first step that carries failures.


def _step(report, witness=None):
    """A checker's report as one step."""
    return report.checked, _report_failures(report), witness


def _check(inputs, expected, got, note):
    """One check as a step: its failure record when got differs from expected."""
    return 1, [] if got == expected else [_fail_record(inputs, expected, got, note)], None


def _accepted_control(report, inputs):
    """The failure records of a negative control whose map should have been
    rejected: one when the checker accepted it."""
    if not report.passed:
        return []
    return [_fail_record(inputs, "rejection of the identity map", "accepted", "negative control")]


def _witness_targets(cfg, carrier):
    if carrier.cardinality <= EXHAUSTIVE_WITNESS_CAP:
        return carrier.elements()
    return _draws(carrier, cfg.seed, "witnesses", cfg.witness_samples)


def _run_extract_all(cfg, base):
    carrier = matrix_ring(base, cfg.n)
    domain = verification_elements(carrier, cfg.seed)
    basis = _coordinate_basis(carrier)
    for a in _witness_targets(cfg, carrier):
        oracle = adversarial_oracle(a, carrier)
        abar = extract_witness(oracle, cfg.n, force=cfg.force)
        yield 0, [], abar
        # x -> [abar - a, x] is additive, so it vanishes on the carrier once
        # it vanishes on the basis; the step counts the domain scan it saves
        z = carrier.sub(abar, a)
        if all(commutator(z, e) == carrier.zero for e in basis):
            yield len(domain), [], None
            continue
        # the first failing x of the domain, or of the basis when a sampled
        # domain holds none
        for x in (*domain, *basis):
            yield _check(
                (a, x), commutator(a, x), commutator(abar, x), "extracted witness disagrees at x"
            )


def _run_lemma2(cfg, base):
    carrier = matrix_ring(base, cfg.n)
    for a in _witness_targets(cfg, carrier):
        oracle = adversarial_oracle(a, carrier)
        table = collect_unit_witnesses(oracle, cfg.n)
        for i in range(1, cfg.n + 1):
            for j in range(1, cfg.n + 1):
                if i != j:
                    yield _step(
                        verify_unit_image_formula(oracle, cfg.n, i, j, unit_witnesses=table)
                    )


def _run_lemma3(cfg, base):
    carrier = matrix_ring(base, cfg.n)
    xo = staircase(base, cfg.n)
    buckets = {}
    for v in carrier.elements():
        buckets.setdefault(commutator(v, xo), []).append(v)
    for group in buckets.values():
        for b in group:
            for c in group:
                # one check per pair, however many index pairs it compares
                yield 1, _report_failures(verify_diagonal_differences(b, c)), None


def _corner_e12(base):
    return matrix_unit(base, 2, 1, 2)


def _run_extend_deriv(cfg, base):
    corner_ring = matrix_ring(base, 2)
    D = inner_derivation(_corner_e12(base), corner_ring)
    ext = extend_derivation_to_n(D, cfg.n)
    yield _step(check_derivation(ext, pair_samples=cfg.pair_samples, seed=cfg.seed))
    for v in corner_ring.elements():
        yield _check(
            (v,),
            corner_embed(D.evaluate(v), cfg.n),
            ext.evaluate(corner_embed(v, cfg.n)),
            "extension disagrees on the corner",
        )


def _run_extend_2local(cfg, base):
    corner_ring = matrix_ring(base, 2)
    carrier = matrix_ring(base, cfg.n)
    corner_elements = corner_ring.elements()
    for a in _witness_targets(cfg, corner_ring):
        oracle = adversarial_oracle(a, corner_ring)
        ext = extend_two_local_to_n(oracle, cfg.n)
        for v in corner_elements:
            yield _check(
                (a, v),
                corner_embed(oracle.value(v), cfg.n),
                ext.value(corner_embed(v, cfg.n)),
                "extension disagrees on the corner",
            )
    # sampled global 2-locality of the extension of one adversarial oracle
    oracle = adversarial_oracle(_corner_e12(base), corner_ring)
    ext = extend_two_local_to_n(oracle, cfg.n)
    dmap = DerivationMap(carrier, ext.value, verification_domain(carrier))
    yield _step(check_two_local(dmap, pair_cap=0, pair_samples=cfg.two_local_pairs, seed=cfg.seed))


def _run_prop9(cfg, base):
    corner_ring = matrix_ring(base, 2)
    for a in _witness_targets(cfg, corner_ring):
        oracle = adversarial_oracle(a, corner_ring)
        try:
            c = extend_extract_compress(oracle, cfg.n, force=cfg.force)
        except (VerificationFailedError, InconsistentOracleError) as exc:
            # a pair of the extension without a common witness, or a corner
            # read back wrong, is a counterexample and reported as a failure
            point = getattr(exc, "counterexample", None)
            yield 0, [_fail_record((a, point), None, None, str(exc))], None
        else:
            yield len(corner_ring.elements()), [], c


def _run_prop10(cfg, base):
    ambient = matrix_ring(base, cfg.n)
    e12 = matrix_unit(base, cfg.n, 1, 2)
    e21 = matrix_unit(base, cfg.n, 2, 1)
    triples = iter(_draws(ambient, cfg.seed, "gen-pairs", 3 * cfg.gen_pairs))
    for x, y, a in [(e12, e21, e12), *zip(triples, triples, triples)]:
        S = generate_subring(x, y, ambient)
        oracle = adversarial_oracle(a, ambient)
        delta = {p: oracle.value(p) for p in S.elements}
        d = witness_search(ambient, [(x, delta[x]), (y, delta[y])])
        if d is None:
            yield 0, [_fail_record((x, y), (delta[x], delta[y]), None, "no common witness")], None
        else:
            yield _step(check_inner_on_subring(S, delta, d), d)
    # negative control: the identity map must be rejected on <e12, e21>,
    # either for lack of any generator-pair witness or on the closure
    S0 = generate_subring(e12, e21, ambient)
    identity_table = {p: p for p in S0.elements}
    d0 = witness_search(ambient, [(e12, e12), (e21, e21)])
    if d0 is not None:
        rep0 = check_inner_on_subring(S0, identity_table, d0)
        yield rep0.checked, _accepted_control(rep0, (e12, e21)), None


def _run_two_local_check(cfg, base):
    carrier = matrix_ring(base, cfg.n)
    if carrier.cardinality <= 64:
        targets = carrier.elements()
    else:
        targets = _draws(carrier, cfg.seed, "two-local-maps", 16)
    for a in targets:
        rep = check_two_local(
            inner_derivation(a, carrier),
            pair_samples=cfg.two_local_pairs,
            seed=cfg.seed,
        )
        yield _step(rep)
    # negative control: the identity map must be rejected at (e11, e11)
    ident = DerivationMap(carrier, lambda x: x, verification_domain(carrier))
    rep = check_two_local(ident, pair_samples=cfg.two_local_pairs, seed=cfg.seed)
    e11 = matrix_unit(base, cfg.n, 1, 1)
    failures = _accepted_control(rep, (e11, e11))
    if not rep.passed and rep.failures[0].inputs != (e11, e11):
        failures = [
            _fail_record(
                rep.failures[0].inputs, (e11, e11), "wrong counterexample pair", "negative control"
            )
        ]
    yield rep.checked, failures, None


_RUNNERS = {
    "extract-all": _run_extract_all,
    "lemma2": _run_lemma2,
    "lemma3": _run_lemma3,
    "extend-deriv": _run_extend_deriv,
    "extend-2local": _run_extend_2local,
    "prop9": _run_prop9,
    "prop10": _run_prop10,
    "two-local-check": _run_two_local_check,
}

_CONFIG_ERRORS = (ValueError, CliConfigError, AdlocalError)


def run(config: ExperimentConfig) -> RunReport:
    """Dispatch one experiment; an unknown experiment, n < 2, a budget
    out of range (including one above BUDGET_CAP) and every configuration
    exception become status "error"."""
    start = time.perf_counter()
    echo = asdict(config)
    try:
        if config.experiment not in _RUNNERS:
            raise CliConfigError(f"unknown experiment {config.experiment!r}")
        if config.n < 2:
            raise CliConfigError("matrix experiments need n >= 2")
        for name in _SAMPLE_BUDGETS:
            if getattr(config, name) <= 0:
                raise CliConfigError(f"{_flag(name)} must be positive")
        if config.gen_pairs < 0:
            raise CliConfigError("--gen-pairs must not be negative")
        for name in (*_SAMPLE_BUDGETS, "gen_pairs"):
            if getattr(config, name) > BUDGET_CAP:
                raise CliConfigError(f"{_flag(name)} must be at most {BUDGET_CAP}")
        base = parse_ring_spec(config.ring)
        checks, failures, witnesses = 0, [], []
        # failures ends as the records of the last step run: empty on a pass
        for step_checks, failures, witness in _RUNNERS[config.experiment](config, base):
            checks += step_checks
            if witness is not None:
                witnesses.append(witness)
            if failures:
                break
        status = "pass" if not failures else "fail"
    except _CONFIG_ERRORS as exc:
        print(f"adlocal: {exc}", file=sys.stderr)
        checks, failures, witnesses, status = 0, [], [], "error"
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return RunReport(
        config=echo,
        status=status,
        checks=checks,
        failures=failures,
        witnesses=[_ser(w) for w in witnesses],
        seed=config.seed,
        elapsed_ms=elapsed_ms,
    )


def emit_report(report: RunReport, path: str | None = None) -> str:
    """Serialize with the fixed key order, that of the RunReport fields;
    write to the path, or to stdout without one."""
    text = json.dumps(asdict(report), indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adlocal", description=__doc__)
    parser.add_argument("experiment", choices=list(_RUNNERS))
    parser.add_argument("--ring", required=True, help="zmod:<m> | poly:<m>:<k> | mat:<spec>:<n>")
    parser.add_argument("--n", type=int, required=True, help="matrix dimension (>= 2)")
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    parser.add_argument(
        "--seed", type=int, default=defaults["seed"], help="root seed for every sampled budget"
    )
    for name in (*_SAMPLE_BUDGETS, "gen_pairs"):
        parser.add_argument(_flag(name), type=int, default=defaults[name])
    parser.add_argument("--force", action="store_true", help="probe non-commutative base rings")
    parser.add_argument("--json", dest="json_path", default=None, help="write the report here")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = ExperimentConfig(
            **{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
        )
    except CliConfigError as exc:
        print(f"adlocal: {exc}", file=sys.stderr)
        return 3
    report = run(config)
    try:
        emit_report(report, path=args.json_path)
    except OSError as exc:
        print(f"adlocal: cannot write report: {exc}", file=sys.stderr)
        return 4
    if report.status == "pass":
        return 0
    if report.status == "fail":
        return 2
    return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
