import json
import time

import pytest

from adlocal import (
    DerivationMap,
    Matrix,
    InconsistentOracleError,
    VerificationFailedError,
    adversarial_oracle,
    check_two_local,
    commutator,
    matrix_ring,
    matrix_unit,
    parse_ring_spec,
    verification_domain,
    verification_elements,
    zmod,
)
from adlocal import cli
from adlocal.cli import ExperimentConfig, _report_failures, emit_report, main, run


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_extract_all_z2_passes(capsys):
    code, out, _ = run_cli(capsys, "extract-all", "--ring", "zmod:2", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert len(doc["witnesses"]) == 16
    assert doc["failures"] == []
    # the witness extracted for a = e12 is e12 itself
    assert [["0", "1"], ["0", "0"]] in doc["witnesses"]


def test_report_key_order(capsys):
    code, out, _ = run_cli(capsys, "extract-all", "--ring", "zmod:2", "--n", "2")
    assert code == 0
    assert list(json.loads(out).keys()) == [
        "config",
        "status",
        "checks",
        "failures",
        "witnesses",
        "seed",
        "elapsed_ms",
    ]


def test_byte_determinism():
    cfg = ExperimentConfig(ring="zmod:2", n=2, experiment="extract-all", seed=0)
    first = emit_report(run(cfg), path=None)
    second = emit_report(run(cfg), path=None)
    strip = lambda text: "\n".join(
        line for line in text.splitlines() if '"elapsed_ms"' not in line
    )
    assert strip(first) == strip(second)


def test_json_file_output(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "extract-all", "--ring", "zmod:2", "--n", "2", "--json", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["status"] == "pass"
    assert doc["config"]["ring"] == "zmod:2"


def test_json_io_failure(capsys):
    code, _, err = run_cli(
        capsys,
        "extract-all",
        "--ring",
        "zmod:2",
        "--n",
        "2",
        "--json",
        "/nonexistent-dir/report.json",
    )
    assert code == 4
    assert "cannot write report" in err


def test_noncommutative_base_refused(capsys):
    code, out, err = run_cli(capsys, "extract-all", "--ring", "mat:zmod:2:2", "--n", "2")
    assert code == 3
    assert "not commutative" in err
    doc = json.loads(out)
    assert doc["status"] == "error"


def test_failure_records_carry_the_note(capsys):
    # a forced extraction over the non-commutative base M2(Z2) fails on its
    # second seeded witness
    code, out, _ = run_cli(
        capsys, "extract-all", "--ring", "mat:zmod:2:2", "--n", "2", "--force",
        "--witness-samples", "2",
    )
    assert code == 2
    (record,) = json.loads(out)["failures"]
    assert list(record) == ["inputs", "expected", "got", "note"]
    assert record["note"] == "extracted witness disagrees at x"
    # records built from checker reports keep the checker's note
    carrier = matrix_ring(zmod(2), 2)
    ident = DerivationMap(carrier, lambda x: x, verification_domain(carrier))
    (record,) = _report_failures(check_two_local(ident))
    assert record["note"] == "no common witness"
    assert record["inputs"] == [[["1", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]]


def test_run_stops_at_the_first_failing_step(monkeypatch):
    # checks are summed and witnesses kept up to and including the first
    # step that carries failures; no later step is drawn
    steps = [(2, [], "w1"), (3, [{"note": "first"}], "w2"), (5, [{"note": "second"}], "w3")]
    drawn = []

    def runner(cfg, base):
        for step in steps:
            drawn.append(step)
            yield step

    monkeypatch.setitem(cli._RUNNERS, "lemma3", runner)
    report = run(ExperimentConfig(ring="zmod:2", n=2, experiment="lemma3"))
    assert (report.status, report.checks) == ("fail", 5)
    assert report.failures == [{"note": "first"}]
    assert report.witnesses == ["w1", "w2"]
    assert drawn == steps[:2]


def test_bad_ring_spec(capsys):
    code, _, err = run_cli(capsys, "extract-all", "--ring", "gf:9", "--n", "2")
    assert code == 3
    assert "bad ring spec" in err


def test_bad_dimension(capsys):
    code, _, err = run_cli(capsys, "extract-all", "--ring", "zmod:2", "--n", "1")
    assert code == 3


def test_unknown_experiment_flag_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate", "--ring", "zmod:2", "--n", "2")
    assert code == 3


def test_seed_comes_only_from_the_flag(capsys, monkeypatch):
    # no environment variable sets the seed, a malformed one included
    monkeypatch.setenv("ADLOCAL_SEED", "abc")
    code, out, _ = run_cli(capsys, "extract-all", "--ring", "zmod:2", "--n", "2")
    assert code == 0
    assert json.loads(out)["seed"] == 0
    code, out, _ = run_cli(
        capsys, "extract-all", "--ring", "zmod:2", "--n", "2", "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["seed"] == 3


def test_extract_all_n5_finishes(capsys):
    # M5(Z2) has 2^25 elements, which a scan of the carrier never finished
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "extract-all", "--ring", "zmod:2", "--n", "5", "--witness-samples", "1"
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    assert elapsed < 30, f"took {elapsed:.1f}s, budget 30s"


def test_lemma3_cli(capsys):
    code, out, _ = run_cli(capsys, "lemma3", "--ring", "zmod:2", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["checks"] == 4096  # 512 staircase values times 8 centralizer members


def test_lemma2_cli(capsys):
    code, out, _ = run_cli(capsys, "lemma2", "--ring", "zmod:3", "--n", "2")
    assert code == 0
    assert json.loads(out)["checks"] == 81 * 2


def test_two_local_check_cli(capsys):
    code, out, _ = run_cli(capsys, "two-local-check", "--ring", "zmod:2", "--n", "2")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_prop10_cli(capsys):
    code, out, _ = run_cli(
        capsys, "prop10", "--ring", "zmod:2", "--n", "2", "--gen-pairs", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert len(doc["witnesses"]) == 3  # canonical run + two seeded runs


def test_prop10_cli_z4(capsys):
    # over Z_4 the identity-map control is rejected before the closure stage:
    # no element implements it at both generators
    code, out, _ = run_cli(
        capsys, "prop10", "--ring", "zmod:4", "--n", "2", "--gen-pairs", "2"
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_prop9_cli(capsys):
    code, out, _ = run_cli(capsys, "prop9", "--ring", "zmod:2", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert len(doc["witnesses"]) == 16


def test_prop9_beyond_n4_passes(capsys):
    # two doublings and a compression: every M2(Z2) corner oracle extends
    # to M5(Z2) and its corner map is read back from one extracted witness
    code, out, err = run_cli(capsys, "prop9", "--ring", "zmod:2", "--n", "5")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["failures"] == []
    assert len(doc["witnesses"]) == 16


def test_oversize_carrier_fails_fast(capsys):
    # M9(Z2) has 81 Z_2 coordinates, above the 64 any carrier may have
    for experiment in ("extend-deriv", "extract-all"):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, experiment, "--ring", "zmod:2", "--n", "9", "--pair-samples", "10"
        )
        elapsed = time.perf_counter() - start
        assert code == 3
        assert json.loads(out)["status"] == "error"
        assert "81 Z_2 coordinates" in err
        assert elapsed < 15, f"{experiment} took {elapsed:.1f}s, budget 15s"


def test_oversize_closure_fails_fast(capsys):
    # a random generator pair of M5(Z2) closes to far more than ELEMENT_CAP
    # elements; the closure is refused before it grows past the cap
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "prop10", "--ring", "zmod:2", "--n", "5", "--gen-pairs", "1"
    )
    elapsed = time.perf_counter() - start
    assert code == 3
    assert json.loads(out)["status"] == "error"
    assert "closure has more than 65536 elements" in err
    assert elapsed < 10, f"prop10 took {elapsed:.1f}s, budget 10s"


def test_extend_deriv_cli(capsys):
    code, out, _ = run_cli(
        capsys, "extend-deriv", "--ring", "zmod:2", "--n", "3", "--pair-samples", "4000"
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_extend_2local_cli(capsys):
    code, out, _ = run_cli(
        capsys, "extend-2local", "--ring", "zmod:2", "--n", "4", "--two-local-pairs", "60"
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_negative_budget_rejected(capsys):
    code, _, err = run_cli(
        capsys, "extract-all", "--ring", "zmod:2", "--n", "2", "--pair-samples", "0"
    )
    assert code == 3


BAD_BUDGETS = (
    [
        (name, value)
        for name in ("pair_samples", "two_local_pairs", "witness_samples")
        for value in (0, -3)
    ]
    + [("gen_pairs", -1)]
    + [
        (name, cli.BUDGET_CAP + 1)
        for name in (
            "pair_samples",
            "two_local_pairs",
            "witness_samples",
            "gen_pairs",
        )
    ]
)


@pytest.mark.parametrize("name,value", BAD_BUDGETS)
def test_budget_out_of_range_is_a_config_error(capsys, name, value):
    # run() itself refuses the budget, so every caller gets status "error"
    report = run(ExperimentConfig(ring="zmod:2", n=2, experiment="extract-all", **{name: value}))
    assert (report.status, report.checks) == ("error", 0)
    flag = "--" + name.replace("_", "-")
    code, out, err = run_cli(capsys, "extract-all", "--ring", "zmod:2", "--n", "2", flag, str(value))
    assert code == 3
    doc = json.loads(out)
    assert (doc["status"], doc["checks"], doc["config"][name]) == ("error", 0, value)
    assert flag in err


# extract-all proves [abar, x] = [a, x] on the Z_m coordinate basis and
# scans the domain only when the proof fails; the reference below is the
# element scan it replaces.


def _extract_all_reference(cfg):
    """Checks, failure records and witnesses of the scan of every x of the
    domain for every witness, up to the first failing x."""
    carrier = matrix_ring(parse_ring_spec(cfg.ring), cfg.n)
    domain = verification_elements(carrier, cfg.seed)
    checks, witnesses = 0, []
    for a in cli._witness_targets(cfg, carrier):
        abar = cli.extract_witness(adversarial_oracle(a, carrier), cfg.n, force=cfg.force)
        witnesses.append(cli._ser(abar))
        for x in domain:
            checks += 1
            want, got = commutator(a, x), commutator(abar, x)
            if got != want:
                note = "extracted witness disagrees at x"
                return checks, [cli._fail_record((a, x), want, got, note)], witnesses
    return checks, [], witnesses


def _shifted_extraction(monkeypatch, z, keep=True):
    """Make extract-all extract abar = (its extraction, or the hidden a
    when not ``keep``) + z."""
    extract, make_oracle, hidden = cli.extract_witness, cli.adversarial_oracle, []

    def oracle_of(a, carrier):
        hidden.append(a)
        return make_oracle(a, carrier)

    def shifted(oracle, n, force=False):
        base = extract(oracle, n, force=force) if keep else hidden[-1]
        return oracle.carrier.add(base, z)

    monkeypatch.setattr(cli, "adversarial_oracle", oracle_of)
    monkeypatch.setattr(cli, "extract_witness", shifted)


@pytest.mark.parametrize(
    "ring,force",
    [("zmod:2", False), ("poly:2:2", False), ("mat:zmod:2:2", True)],
)
def test_extract_all_shifted_witness_fails_at_the_scans_first_x(monkeypatch, ring, force):
    z = matrix_unit(parse_ring_spec(ring), 2, 1, 2)  # not central
    _shifted_extraction(monkeypatch, z)
    cfg = ExperimentConfig(ring=ring, n=2, experiment="extract-all", force=force)
    report = run(cfg)
    checks, failures, witnesses = _extract_all_reference(cfg)
    assert report.status == "fail" and failures
    assert (report.checks, report.failures, report.witnesses) == (checks, failures, witnesses)


@pytest.mark.parametrize("ring", ["zmod:3", "poly:2:2", "mat:zmod:2:2"])
def test_extract_all_matches_the_element_scan(ring):
    # passing runs count |domain| checks per witness, as the scan did; the
    # forced run over M2(Z2) fails on its second witness, as the scan did
    force = ring.startswith("mat")
    cfg = ExperimentConfig(ring=ring, n=2, experiment="extract-all", force=force, witness_samples=4)
    report = run(cfg)
    checks, failures, witnesses = _extract_all_reference(cfg)
    assert (report.checks, report.failures, report.witnesses) == (checks, failures, witnesses)


def test_extract_all_sampled_domain_without_a_failing_x_reports_the_basis(monkeypatch):
    # over M2(M2(Z2)), z = diag(e11, e11) commutes with every matrix unit,
    # whose entries are 0 and 1, but not with every coordinate basis
    # element E_k = element(2^k).  A domain of the matrix units alone, as a
    # sample of a larger carrier can be, holds no x where abar = a + z
    # disagrees with a; the scan of the basis after it reports the first
    # E_k that does.
    base = parse_ring_spec("mat:zmod:2:2")
    carrier = matrix_ring(base, 2)
    e11 = matrix_unit(zmod(2), 2, 1, 1)
    z = Matrix(base, ((e11, base.zero), (base.zero, e11)))
    _shifted_extraction(monkeypatch, z, keep=False)
    monkeypatch.setattr(cli, "verification_elements", lambda carrier, seed: carrier.units())
    cfg = ExperimentConfig(ring="mat:zmod:2:2", n=2, experiment="extract-all", force=True)
    report = run(cfg)
    # E_0 = e22 (x) e22 commutes with z, E_1 = e22 (x) e21 does not
    e0, e1 = carrier.element(1), carrier.element(2)
    assert commutator(z, e0) == carrier.zero != commutator(z, e1)
    a = cli._witness_targets(cfg, carrier)[0]
    abar = carrier.add(a, z)
    assert report.status == "fail" and report.checks == len(carrier.units()) + 2
    assert report.failures == [
        cli._fail_record(
            (a, e1), commutator(a, e1), commutator(abar, e1), "extracted witness disagrees at x"
        )
    ]


# Failure records that the battery and the goldens never reach: each
# failure is injected by replacing a name in cli, and the run must exit 2
# with that record and stop at its step.


def _failed_record(capsys, *argv):
    """The report and the one failure record of a CLI run that must fail."""
    code, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert (code, doc["status"], len(doc["failures"])) == (2, "fail", 1)
    record = doc["failures"][0]
    assert list(record) == ["inputs", "expected", "got", "note"]
    return doc, record


def test_two_local_check_records_an_accepted_negative_control(capsys, monkeypatch):
    # on a domain of zero alone the identity map is 2-local, so the control
    # accepts it; it is the last step, so the checks are those of a pass
    passing = run(ExperimentConfig(ring="zmod:2", n=2, experiment="two-local-check"))
    monkeypatch.setattr(cli, "verification_domain", lambda carrier: (carrier.zero,))
    doc, record = _failed_record(capsys, "two-local-check", "--ring", "zmod:2", "--n", "2")
    e11 = matrix_unit(zmod(2), 2, 1, 1)
    assert record == {
        "inputs": [cli._ser(e11), cli._ser(e11)],
        "expected": "rejection of the identity map",
        "got": "accepted",
        "note": "negative control",
    }
    assert doc["checks"] == passing.checks


def test_two_local_check_records_a_wrong_counterexample_pair(capsys, monkeypatch):
    # the domain in reverse order: the identity map first fails at a pair
    # other than (e11, e11)
    carrier = matrix_ring(zmod(2), 2)
    backwards = verification_domain(carrier)[::-1]
    control = check_two_local(DerivationMap(carrier, lambda x: x, backwards))
    e11 = matrix_unit(zmod(2), 2, 1, 1)
    assert not control.passed and control.failures[0].inputs != (e11, e11)
    passing = run(ExperimentConfig(ring="zmod:2", n=2, experiment="two-local-check"))
    monkeypatch.setattr(cli, "verification_domain", lambda carrier: backwards)
    doc, record = _failed_record(capsys, "two-local-check", "--ring", "zmod:2", "--n", "2")
    assert record == {
        "inputs": cli._ser(control.failures[0].inputs),
        "expected": cli._ser((e11, e11)),
        "got": "wrong counterexample pair",
        "note": "negative control",
    }
    # the identity control of the passing run stops at its first pair
    assert doc["checks"] == passing.checks - 1 + control.checked


@pytest.mark.parametrize("with_point", [True, False])
def test_prop9_records_a_failed_roundtrip(capsys, monkeypatch, with_point):
    # the roundtrip of the second witness target raises: its record names
    # the target and the counterexample, if any, and the run stops there
    corner = matrix_ring(zmod(2), 2)
    if with_point:
        point = corner.element(6)
        error = VerificationFailedError("compressed witness fails the corner map", point)
    else:
        point = None
        error = InconsistentOracleError("no element implements the map at both points of a pair")
    roundtrip, targets, witnesses = cli.extend_extract_compress, [], []

    def second_fails(oracle, n, force=False):
        targets.append(oracle)
        if len(targets) == 2:
            raise error
        witnesses.append(roundtrip(oracle, n, force=force))
        return witnesses[-1]

    monkeypatch.setattr(cli, "extend_extract_compress", second_fails)
    doc, record = _failed_record(capsys, "prop9", "--ring", "zmod:2", "--n", "3")
    a = corner.elements()[1]
    assert record == {
        "inputs": cli._ser((a, point)),
        "expected": None,
        "got": None,
        "note": str(error),
    }
    assert len(targets) == 2
    assert (doc["checks"], doc["witnesses"]) == (corner.cardinality, cli._ser(witnesses))


def test_prop10_records_a_generator_pair_without_a_common_witness(capsys, monkeypatch):
    # the second generator pair finds no witness: the record holds its
    # constraints, and only the first closure was checked
    search, inner, calls, checked = cli.witness_search, cli.check_inner_on_subring, [], []

    def second_finds_none(carrier, constraints):
        calls.append(constraints)
        return None if len(calls) == 2 else search(carrier, constraints)

    def counted(S, delta, d):
        report = inner(S, delta, d)
        checked.append(report.checked)
        return report

    monkeypatch.setattr(cli, "witness_search", second_finds_none)
    monkeypatch.setattr(cli, "check_inner_on_subring", counted)
    doc, record = _failed_record(capsys, "prop10", "--ring", "zmod:2", "--n", "2")
    (x, tx), (y, ty) = calls[1]
    assert record == {
        "inputs": cli._ser((x, y)),
        "expected": cli._ser((tx, ty)),
        "got": None,
        "note": "no common witness",
    }
    assert len(calls) == 2 and doc["checks"] == sum(checked) and len(checked) == 1
