"""Command-line pipeline: artifacts, exit codes, reproducibility."""

import argparse
import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantstab
from quantstab import (Dataset, Polytope, SynthResult, VerificationReport,
                       builtin_partition, builtin_system, lp_core,
                       synthesize_sign)
from quantstab.cli import build_parser, main
from quantstab.synth_sign import ETA

from conftest import fresh_solves
from test_synth_sign import _StatusOnCall

OK, INFEASIBLE, UNVERIFIED, CONFIG = 0, 2, 3, 4


def run(*args):
    return main(list(args))


def _never_solved(*args, **kw):
    pytest.fail("a synthesis LP was solved")


@pytest.fixture
def no_lp(monkeypatch):
    """Fail the test on any LP solve, fresh or warm: pruning, the
    nonemptiness check, synthesis and the audit alike."""
    def solved(*args, **kw):
        pytest.fail("an LP was solved")
    monkeypatch.setattr(lp_core.LinprogBackend, "solve", solved)
    monkeypatch.setattr(lp_core._WarmLP, "run", solved)


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "d100.json"
    assert run("gendata", "--system", "sys1", "--T", "100", "--seed", "1",
               "--out", str(path)) == OK
    return str(path)


@pytest.fixture(scope="module")
def cert_file(tmp_path_factory, data_file):
    path = tmp_path_factory.mktemp("cli") / "cert.json"
    assert run("synthesize", "--system", "sys1", "--data", data_file,
               "--method", "sign", "--mode", "ess", "--rho", "0.7",
               "--out", str(path)) == OK
    return str(path)


@pytest.fixture(scope="module")
def pruned_file(tmp_path_factory, data_file):
    """The fixture data as a bare polytope, pruned to 48 faces."""
    path = tmp_path_factory.mktemp("cli") / "pruned.json"
    assert run("prune", "--data", data_file, "--out", str(path)) == OK
    return str(path)


# ---------------------------------------------------------------------------
# data generation


def test_gendata_writes_dataset(data_file, sys1):
    with open(data_file) as f:
        ds = Dataset.from_json_dict(json.load(f))
    assert len(ds) == 100
    assert (ds.n, ds.m) == (3, 2)


def test_gendata_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run("gendata", "--system", "sys1", "--T", "30", "--seed",
                   "7", "--out", str(path)) == OK
    assert a.read_bytes() == b.read_bytes()


def test_gendata_empty(tmp_path):
    out = tmp_path / "empty.json"
    assert run("gendata", "--system", "sys1", "--T", "0", "--out",
               str(out)) == OK
    with open(out) as f:
        assert len(Dataset.from_json_dict(json.load(f))) == 0


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_emits_verified_certificate(cert_file):
    with open(cert_file) as f:
        d = json.load(f)
    assert d["status"] == "feasible"
    assert d["method"] == "sign"
    assert d["rho"] == pytest.approx(0.7)
    assert d["lambda"] < 1.0
    assert d["eta"] == ETA
    K = np.asarray(d["K"])
    S = np.asarray(d["S"])
    v = np.asarray(d["v"])
    np.testing.assert_allclose(K, S / v[None, :], atol=1e-12)


def test_synthesize_infeasible_exit_code(data_file):
    assert run("synthesize", "--system", "sys1", "--data", data_file,
               "--method", "sign", "--mode", "ss", "--rho",
               "0.1") == INFEASIBLE


def test_synthesize_requires_rho(data_file):
    assert run("synthesize", "--system", "sys1", "--data",
               data_file) == CONFIG


def test_synthesize_aarc_records_envelope(tmp_path, data_file):
    out = tmp_path / "aarc.json"
    code = run("synthesize", "--system", "sys1", "--data", data_file,
               "--method", "aarc", "--mode", "ess", "--rho", "0.8",
               "--out", str(out))
    assert code == OK
    with open(out) as f:
        d = json.load(f)
    assert d["method"] == "aarc"
    assert "m0" in d and "ma" in d and "mb" in d


def test_synthesize_dumps_one_multiplier_block(tmp_path, data_file):
    pruned, cert, zfile = (tmp_path / name for name in
                           ("pruned.json", "cert.json", "z.json"))
    assert run("prune", "--data", data_file, "--out", str(pruned)) == OK
    assert run("synthesize", "--system", "sys1", "--data", str(pruned),
               "--rho", "0.7", "--out", str(cert),
               "--dump-z", str(zfile)) == OK
    poly = Polytope.from_json_dict(json.loads(pruned.read_text()))
    Z = json.loads(zfile.read_text())
    assert list(Z) == ["Z"]
    z = np.asarray(Z["Z"])
    assert z.shape == (3 * 2 ** (3 + 2), poly.num_faces)
    d = json.loads(cert.read_text())
    assert np.all(z @ poly.h
                  <= d["lambda"] * np.tile(d["v"], 2 ** 5) + 1e-7)


def test_synthesize_dumps_the_envelope_multiplier_blocks(tmp_path, data_file):
    # AARC writes Z_M and Z_b, which certify the written certificate's
    # row-sum and envelope containments over the pruned polytope
    pruned, cert, zfile = (tmp_path / name for name in
                           ("pruned.json", "cert.json", "z.json"))
    assert run("prune", "--data", data_file, "--out", str(pruned)) == OK
    assert run("synthesize", "--system", "sys1", "--data", str(pruned),
               "--method", "aarc", "--rho", "0.7", "--out", str(cert),
               "--dump-z", str(zfile)) == OK
    poly = Polytope.from_json_dict(json.loads(pruned.read_text()))
    Z = json.loads(zfile.read_text())
    assert list(Z) == ["ZM", "Zb"]
    ZM, Zb = np.asarray(Z["ZM"]), np.asarray(Z["Zb"])
    assert ZM.shape == (3, poly.num_faces)
    assert Zb.shape == (2 * 3 * 3 * 2 ** 2, poly.num_faces)
    assert ZM.min() >= -1e-12 and Zb.min() >= -1e-12
    d = json.loads(cert.read_text())
    m0 = np.asarray(d["m0"])
    rowsums = m0.reshape(3, 3, order="F").sum(axis=1)
    assert np.all(ZM @ poly.h + rowsums
                  <= d["lambda"] * np.asarray(d["v"]) + 1e-7)
    assert np.all(Zb @ poly.h <= np.tile(m0, 2 * 2 ** 2) + 1e-7)


def test_synthesize_withholds_unverified_certificate(tmp_path, monkeypatch):
    monkeypatch.setattr("quantstab.cli.robust_verify",
                        lambda *args, **kw: VerificationReport(
                            verified=False, worst_margin=-1.0))
    out = tmp_path / "cert.json"
    assert run("synthesize", "--system", "sys1", "--method", "sign",
               "--rho", "0.7", "--out", str(out)) == UNVERIFIED
    assert not out.exists()
    # the audit cannot be skipped
    assert run("synthesize", "--system", "sys1", "--method", "sign",
               "--rho", "0.7", "--unchecked", "--out", str(out)) == CONFIG
    assert not out.exists()


def test_failed_nonemptiness_lp_is_a_solver_failure(tmp_path, monkeypatch,
                                                     capsys, data_file):
    monkeypatch.setattr("quantstab.lp_core.DEFAULT_BACKEND", _StatusOnCall())
    out = tmp_path / "cert.json"
    assert run("synthesize", "--system", "sys1", "--data", data_file,
               "--rho", "0.7", "--out", str(out)) == UNVERIFIED
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: nonemptiness LP failed")
    assert "Traceback" not in err


def test_nominal_synthesis_needs_no_data(tmp_path):
    out = tmp_path / "nom.json"
    assert run("synthesize", "--system", "sys1", "--method", "sign",
               "--mode", "ss", "--rho", "0.5", "--out", str(out)) == OK
    with open(out) as f:
        assert json.load(f)["mode"] == "ss"


def test_dump_z_without_data_is_config_error(tmp_path, monkeypatch, capsys,
                                            no_lp):
    # a point has no Farkas multipliers; rejected before anything is solved
    monkeypatch.setattr("quantstab.cli.synthesize_sign", _never_solved)
    zfile = tmp_path / "z.json"
    assert run("synthesize", "--system", "sys1", "--rho", "0.7",
               "--dump-z", str(zfile)) == CONFIG
    assert not zfile.exists()
    assert "--dump-z requires --data" in capsys.readouterr().err


def test_aarc_without_data_writes_the_plant_envelope(tmp_path):
    # on the known plant the envelope is a constant M, with no m0/ma/mb
    out = tmp_path / "aarc.json"
    assert run("synthesize", "--system", "sys1", "--method", "aarc",
               "--rho", "0.7", "--out", str(out)) == OK
    d = json.loads(out.read_text())
    assert d["method"] == "aarc" and "m0" not in d
    M = np.asarray(d["M"])
    assert M.shape == (3, 3)
    assert np.all(M.sum(axis=1) <= d["lambda"] * np.asarray(d["v"]) + 1e-7)


# ---------------------------------------------------------------------------
# verification and simulation


def test_verify_round_trip(tmp_path, data_file, cert_file):
    out = tmp_path / "report.json"
    assert run("verify", "--system", "sys1", "--data", data_file, "--cert",
               cert_file, "--out", str(out)) == OK
    with open(out) as f:
        rep = json.load(f)
    assert rep["verified"] is True
    assert rep["worst_margin"] > -1e-7


def test_verify_rejects_tampered_certificate(tmp_path, data_file, cert_file):
    with open(cert_file) as f:
        d = json.load(f)
    d["S"] = (np.asarray(d["S"]) + 2.0).tolist()
    d.pop("K")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert run("verify", "--system", "sys1", "--data", data_file, "--cert",
               str(bad)) == UNVERIFIED


def test_verify_audits_against_the_certificate_eta(tmp_path, data_file,
                                                   cert_file):
    # eta belongs to the certificate: a larger one lowers every margin by
    # the difference, so the same (v, S) with eta = 0.5 is not verified
    d = json.loads(Path(cert_file).read_text())
    assert d["eta"] == ETA
    reports = []
    for eta in (ETA, 0.5):
        cert, out = tmp_path / "cert.json", tmp_path / "report.json"
        cert.write_text(json.dumps(dict(d, eta=eta)))
        code = run("verify", "--system", "sys1", "--data", data_file,
                   "--cert", str(cert), "--out", str(out))
        reports.append((code, json.loads(out.read_text())))
    (code, own), (code_half, half) = reports
    assert (code, code_half) == (OK, UNVERIFIED)
    assert half["verified"] is False
    assert half["worst_margin"] == pytest.approx(
        own["worst_margin"] - (0.5 - ETA), abs=1e-9)


def test_verify_of_a_dataset_agrees_with_its_pruned_polytope(
        tmp_path, capsys, data_file, pruned_file, cert_file):
    # pruning keeps the set, so verify audits a Dataset unpruned
    reports = []
    for data in (data_file, pruned_file):
        out = tmp_path / "report.json"
        assert run("verify", "--system", "sys1", "--data", data, "--cert",
                   cert_file, "--out", str(out)) == OK
        reports.append(json.loads(out.read_text()))
    whole, pruned = reports
    assert whole["worst_margin"] == pytest.approx(pruned["worst_margin"],
                                                  abs=1e-9)
    assert whole["worst_case"]["i"] == pruned["worst_case"]["i"]
    # the margin is that of whichever feasible point synthesis returned
    assert capsys.readouterr().out.splitlines()[0] == (
        f"verify: verified, worst margin {whole['worst_margin']:.6e}")


def test_verify_writes_strict_json_for_an_unbounded_direction(tmp_path):
    # three samples leave the polytope unbounded along the known-plant
    # certificate's rows: no NaN or Infinity reaches the report file
    data, cert, out = (tmp_path / name for name in ("d3.json", "cert.json",
                                                    "report.json"))
    assert run("gendata", "--system", "sys1", "--T", "3", "--seed", "1",
               "--out", str(data)) == OK
    assert run("synthesize", "--system", "sys1", "--method", "sign",
               "--mode", "ess", "--rho", "0.7", "--out", str(cert)) == OK
    assert run("verify", "--system", "sys1", "--data", str(data), "--cert",
               str(cert), "--out", str(out)) == UNVERIFIED

    def refuse(name):
        raise ValueError(f"{name} in the report")

    rep = json.loads(out.read_text(), parse_constant=refuse)
    assert rep["verified"] is False and rep["worst_margin"] is None
    assert "unbounded" in rep["diagnostic"]


def test_simulate_writes_decaying_csv(tmp_path, cert_file):
    out = tmp_path / "traj.csv"
    assert run("simulate", "--system", "sys1", "--cert", cert_file, "--T",
               "150", "--x0", "1,-1,0.5", "--out", str(out)) == OK
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "x1", "x2", "x3"]
    assert len(rows) == 152
    first = np.array([float(c) for c in rows[1][1:]])
    last = np.array([float(c) for c in rows[-1][1:]])
    np.testing.assert_allclose(first, [1.0, -1.0, 0.5])
    assert np.max(np.abs(last)) < np.max(np.abs(first))


def test_simulate_rejects_negative_step_count(tmp_path, cert_file, capsys):
    out = tmp_path / "traj.csv"
    assert run("simulate", "--system", "sys1", "--cert", cert_file, "--T",
               "-5", "--out", str(out)) == CONFIG
    assert not out.exists()
    assert "step count must be nonnegative" in capsys.readouterr().err


def test_simulate_rejects_a_gain_of_another_plant(tmp_path, cert_file,
                                                  capsys):
    out = tmp_path / "traj.csv"
    assert run("simulate", "--system", "sys2", "--cert", cert_file, "--T",
               "0", "--out", str(out)) == CONFIG
    assert not out.exists()
    assert "K is 2 x 3, but the plant needs m x n = 3 x 5" \
        in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bisection and sweeps


def test_minrho_matches_frozen_reference(tmp_path, capsys):
    out = tmp_path / "minrho.json"
    assert run("minrho", "--system", "sys1", "--method", "sign",
               "--mode", "ss", "--out", str(out)) == OK
    with open(out) as f:
        d = json.load(f)
    assert d["min_rho"] == pytest.approx(0.31146240234375, abs=1e-9)
    assert capsys.readouterr().out.strip().endswith("(sign, ss)")


@pytest.mark.parametrize("method", ["sign", "aarc"])
@pytest.mark.parametrize("mode, reference", [("ss", 0.31146240234375),
                                             ("ess", 0.01385498046875)])
def test_minrho_without_data_synthesizes_at_the_plant(tmp_path, method, mode,
                                                      reference):
    out = tmp_path / "minrho.json"
    assert run("minrho", "--system", "sys1", "--method", method, "--mode",
               mode, "--out", str(out)) == OK
    d = json.loads(out.read_text())
    assert d["min_rho"] == pytest.approx(reference, abs=1e-9)
    assert d["failed_rho"] == []


def test_minrho_lists_failed_probes(tmp_path, monkeypatch, capsys):
    # the probe at 0.25 lies below the threshold, so rho* is unchanged
    def fails_at_quarter(target, spec, **kw):
        if spec.rho[0] == 0.25:
            return SynthResult("numerical-failure")
        return synthesize_sign(target, spec, **kw)

    monkeypatch.setattr("quantstab.cli.synthesize_sign", fails_at_quarter)
    out = tmp_path / "minrho.json"
    assert run("minrho", "--system", "sys1", "--method", "sign",
               "--mode", "ss", "--out", str(out)) == OK
    d = json.loads(out.read_text())
    assert d["min_rho"] == pytest.approx(0.31146240234375, abs=1e-9)
    assert d["failed_rho"] == [0.25]
    line = capsys.readouterr().out.strip()
    assert line.startswith("minrho: 0.3115 (sign, ss)")
    assert line.endswith("counted infeasible after a solver failure: "
                         "rho = 0.25")


def test_minrho_rejects_nonpositive_tolerance():
    assert run("minrho", "--system", "sys1", "--method", "sign",
               "--tol", "0") == CONFIG


def test_minrho_reports_total_infeasibility(tmp_path):
    # an expanding plant with no usable input cannot be superstabilized
    sysfile = tmp_path / "hopeless.json"
    sysfile.write_text(json.dumps(
        {"A": [[2.0, 0.0], [0.0, 2.0]], "B": [[0.0], [0.0]]}))
    assert run("minrho", "--system", str(sysfile), "--method", "sign",
               "--mode", "ess") == INFEASIBLE


def _third_lp_fails(rho_above=0.0):
    """A stand-in for synthesize_sign that fails the third LP of every
    call at a density above rho_above, on the fresh path: on a point, the
    lambda = 0.75 probe of an ESS min-lambda bisection."""
    def synth(target, spec, **kw):
        if spec.rho[0] <= rho_above:
            return synthesize_sign(target, spec, **kw)
        with fresh_solves(_StatusOnCall(3)):
            return synthesize_sign(target, spec, **kw)
    return synth


def test_synthesize_lists_failed_lambda_probes(monkeypatch, capsys):
    monkeypatch.setattr("quantstab.cli.synthesize_sign", _third_lp_fails())
    assert run("synthesize", "--system", "sys1", "--rho", "0.7",
               "--objective", "min-lambda") == OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("synthesize: feasible, lambda=")
    assert line.endswith("; counted infeasible after a solver failure: "
                         "lambda = 0.75")


def test_sweep_names_densities_with_failed_lambda_probes(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    monkeypatch.setattr("quantstab.cli.synthesize_sign",
                        _third_lp_fails(rho_above=0.5))
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--system", "sys1", "--points", "2", "--rho-min",
               "0.4", "--rho-max", "0.7", "--out", str(out)) == OK
    assert capsys.readouterr().out.strip() == (
        "sweep: 2/2 grid points feasible; lambda probes failed in the "
        "solver at rho = 0.7")
    with open(out) as f:
        assert next(csv.reader(f)) == ["rho", "lambda", "status"]


def test_sweep_produces_monotone_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--system", "sys1", "--method", "sign", "--mode",
               "ss", "--points", "6", "--rho-min", "0.2", "--rho-max",
               "1.0", "--out", str(out)) == OK
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["rho", "lambda", "status"]
    assert len(rows) == 7
    lams = [float(r[1]) for r in rows[1:] if r[2] == "feasible"]
    rhos = [float(r[0]) for r in rows[1:]]
    assert rhos == sorted(rhos)
    assert len(lams) >= 2
    assert all(b <= a + 1e-6 for a, b in zip(lams, lams[1:]))
    # infeasible markers only below the feasibility threshold
    statuses = [r[2] for r in rows[1:]]
    if "infeasible" in statuses:
        assert statuses.index("feasible") > statuses.index("infeasible")


@pytest.mark.parametrize("bad", ["--points 0", "--rho-min 0",
                                 "--rho-max 1.5"])
def test_sweep_rejects_a_bad_grid_before_building_it(bad, tmp_path,
                                                     monkeypatch, capsys,
                                                     recwarn, no_lp):
    monkeypatch.setattr("quantstab.cli.synthesize_sign", _never_solved)
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--system", "sys1", *bad.split(),
               "--out", str(out)) == CONFIG
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: sweep ")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_sweep_keeps_the_gain_of_an_unstable_optimum(tmp_path):
    # the sys1 plant has its SS threshold near 0.311: at 0.2 the least gain
    # is about 1.066, printed with status infeasible
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--system", "sys1", "--method", "sign", "--mode",
               "ss", "--points", "1", "--rho-min", "0.2", "--rho-max",
               "0.2", "--out", str(out)) == OK
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[1][0] == "0.200000" and rows[1][2] == "infeasible"
    assert float(rows[1][1]) == pytest.approx(1.0662, abs=1e-4)


# ---------------------------------------------------------------------------
# pruning


def test_prune_writes_smaller_equivalent_polytope(tmp_path, data_file):
    out = tmp_path / "pruned.json"
    assert run("prune", "--data", data_file, "--out",
               str(out)) == OK
    with open(out) as f:
        pruned = Polytope.from_json_dict(json.load(f))
    assert pruned.num_faces < 600
    assert pruned.dim == 15


def test_prune_of_a_bare_polytope_needs_no_system(tmp_path, data_file,
                                                  capsys):
    once, twice = tmp_path / "p1.json", tmp_path / "p2.json"
    assert run("prune", "--data", data_file, "--out", str(once)) == OK
    assert run("prune", "--data", str(once), "--out", str(twice)) == OK
    assert capsys.readouterr().out.splitlines()[-1] == "prune: 48 -> 48 faces"
    with open(once) as f, open(twice) as g:
        assert json.load(f) == json.load(g)
    # synthesis still needs the input count a bare polytope lacks
    assert run("synthesize", "--data", str(once), "--rho", "0.7") == CONFIG


# ---------------------------------------------------------------------------
# --system against --data


@pytest.mark.parametrize("command", [
    "synthesize --rho 0.7",
    "verify --cert {cert}",
    "minrho",
    "sweep --points 1",
])
@pytest.mark.parametrize("data, held", [
    ("dataset", "n = 3, m = 2"),
    ("polytope", "a polytope over 15 plant entries, not 40"),
])
def test_system_of_another_shape_than_the_data_is_config_error(
        command, data, held, capsys, data_file, pruned_file, cert_file,
        no_lp):
    path = data_file if data == "dataset" else pruned_file
    name, *rest = command.format(cert=cert_file).split()
    assert run(name, "--system", "sys2", "--data", path, *rest) == CONFIG
    assert capsys.readouterr().err == (
        f"error: --system sys2 has n = 5, m = 3, but --data holds {held}\n")


def test_certificate_of_another_shape_than_the_plant_is_config_error(
        capsys, cert_file, no_lp):
    assert run("verify", "--system", "sys2", "--cert", cert_file) == CONFIG
    assert capsys.readouterr().err == (
        "error: the certificate has n = 3, m = 2, but the quantizer has 3 "
        "channels\n")


def test_a_dataset_fixes_the_plant_shape_without_system(tmp_path, data_file,
                                                        cert_file):
    out = tmp_path / "cert.json"
    assert run("synthesize", "--data", data_file, "--method", "sign",
               "--mode", "ess", "--rho", "0.7",
               "--out", str(out)) == OK
    assert out.read_bytes() == Path(cert_file).read_bytes()


def test_empty_dataset_is_config_error_before_its_shape_is_read(
        tmp_path, capsys, no_lp):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(Dataset(()).to_json_dict()))
    for system in ([], ["--system", "sys2"]):
        assert run("synthesize", *system, "--data", str(empty),
                   "--rho", "0.7") == CONFIG
        assert capsys.readouterr().err == (
            "error: cannot build a polytope from an empty dataset\n")


# ---------------------------------------------------------------------------
# config errors


@pytest.mark.parametrize("command, message", [
    ("synthesize --rho 1.5", "synthesize requires --rho in (0, 1]"),
    ("minrho --tol 0", "bisection tolerance must be positive"),
])
def test_bad_value_is_config_error_before_the_data_is_pruned(
        command, message, capsys, data_file, no_lp):
    name, *rest = command.split()
    assert run(name, "--data", data_file, *rest) == CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["synthesize --rho 0.7", "minrho",
                                     "sweep"])
def test_eta_is_an_unrecognized_option(command, capsys, data_file, no_lp):
    # the margin eta is the constant synth_sign.ETA, not an option
    name, *rest = command.split()
    assert run(name, "--data", data_file, *rest, "--eta", "1e-6") == CONFIG
    assert "unrecognized arguments: --eta" in capsys.readouterr().err


_CERT = {"v": [1.0, 1.0, 1.0], "S": [[0.0] * 3] * 2, "lambda": 0.5,
         "eta": 1e-6}


@pytest.mark.parametrize("command, content", [
    ("synthesize --rho 0.7 --data {bad}", [1, 2, 3]),
    ("synthesize --rho 0.7 --data {bad}", {"epsilon": None, "samples": []}),
    ("synthesize --rho 0.7 --data {bad}", {"samples": "oops"}),
    ("verify --system sys1 --cert {bad}", [1, 2, 3]),
    ("verify --system sys1 --cert {bad}", dict(_CERT, **{"lambda": None})),
    ("verify --system sys1 --cert {bad}", dict(_CERT, rho=[0.7])),
    ("synthesize --rho 0.7 --system {bad}", [1, 2, 3]),
    ("synthesize --rho 0.7 --system {bad}", {"A": [[0.5]], "B": {"u": 1}}),
    ("gendata --system sys1 --T 5 --partition {bad}", [1, 2, 3]),
    ("gendata --system sys1 --T 5 --partition {bad}", {"edges": {"e": 1}}),
])
def test_malformed_json_file_is_config_error_naming_it(
        command, content, tmp_path, capsys, no_lp):
    # a file whose top level is not an object, or whose field has the
    # wrong type, is a configuration error, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    assert run(*command.format(bad=bad).split()) == CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not a valid input file (")


def test_bad_subcommand_is_config_error():
    assert run("explode") == CONFIG


def test_bad_flag_value_is_config_error():
    assert run("synthesize", "--system", "sys1", "--rho", "not-a-number") \
        == CONFIG


@pytest.mark.parametrize("valid, unread", [
    ("gendata --system sys1 --T 5", "--prune"),
    ("synthesize --system sys1 --rho 0.7", "--seed 3"),
    ("verify --system sys1 --cert {cert}", "--mode ss"),
    ("verify --system sys1 --data {data} --cert {cert}", "--prune"),
    ("synthesize --system sys1 --rho 0.7", "--prune"),
    ("simulate --system sys1 --cert {cert}", "--prune"),
    ("minrho --system sys1", "--prune"),
    ("sweep --system sys1 --points 1", "--prune"),
    ("prune --data {data}", "--prune"),
    ("simulate --system sys1 --cert {cert}", "--data d.json"),
    ("minrho --system sys1", "--rho 0.5"),
    ("sweep --system sys1 --points 1", "--tol 1e-3"),
    ("prune --data {data}", "--method aarc"),
    ("prune --data {data}", "--system sys1"),
    ("minrho --system sys1 --mode ss", "--method nominal"),
])
def test_option_a_command_does_not_read_is_config_error(
        valid, unread, capsys, data_file, cert_file):
    argv = valid.format(cert=cert_file, data=data_file).split()
    assert run(*argv) == OK
    capsys.readouterr()
    assert run(*argv, *unread.split()) == CONFIG
    assert unread.split()[0] in capsys.readouterr().err


def test_each_subcommand_takes_its_own_options_only():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    slots = {name: sum(1 for action in parser._actions
                       if action.option_strings and action.dest != "help")
             for name, parser in sub.choices.items()}
    assert slots == {"gendata": 6, "synthesize": 8, "verify": 5,
                     "simulate": 6, "minrho": 6, "sweep": 8, "prune": 2}
    assert sum(slots.values()) == 41


def test_module_run_prints_no_runtime_warning(tmp_path):
    src = str(Path(quantstab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "quantstab.cli", "gendata", "--system",
         "sys1", "--T", "5", "--out", str(tmp_path / "d.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == OK
    assert "RuntimeWarning" not in proc.stderr


def test_readme_command_lines_parse():
    # the "Command line" block of the README, continuation lines joined
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) == 7
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "quantstab"
        args = build_parser().parse_args(argv[1:])
        assert args.command == argv[1]


def test_missing_file_is_config_error():
    assert run("synthesize", "--system", "sys1", "--data",
               "/nonexistent/d.json", "--rho", "0.5") == CONFIG


def test_builtin_resolvers_reject_unknown_names(tmp_path):
    with pytest.raises(OSError):
        builtin_system("sys3")
    with pytest.raises(OSError):
        builtin_partition("p9")
