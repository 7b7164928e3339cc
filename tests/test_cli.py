"""End-to-end command-line runs on small models."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lindpair
from lindpair import hilbert as hb
from lindpair.cli import _parser, _write_matrix_pair, main
from lindpair.liouvillian import Liouvillian
from lindpair.models import build_model, model_steady

TWO_SPINS = dict(model="two_spins", omega=1.0, gamma_A=1.0, gamma_B=0.5,
                 s_A=0.8, s_B=0.6, Omega=0.7)
SPIN_OSC = dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0,
                gamma_A=1.0, gamma_B=1.0, s=0.3, nbar=0.2, Omega=0.5,
                n_trunc=6)


@pytest.fixture
def cfg_path(tmp_path):
    def write(data):
        p = tmp_path / f"{data['model']}.json"
        p.write_text(json.dumps(data))
        return str(p)
    return write


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def test_run_writes_trajectory(cfg_path, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg_path(TWO_SPINS), "--out", str(out),
               "--t-max", "4.0", "--samples", "9"])
    assert rc == 0
    header, data = _read_csv(out / "trajectory.csv")
    assert header[0] == "gamma_A_t"
    assert "dist_A_steady" in header and "sector1_norm" in header
    assert data.shape[0] == 9
    dist = data[:, header.index("dist_A_steady")]
    sec = data[:, header.index("sector1_norm")]
    assert dist[0] > 0 and dist[-1] < dist[0]
    assert np.all(np.diff(sec) < 0)


def test_steady_reports_invariance(cfg_path, tmp_path):
    out = tmp_path / "out"
    rc = main(["steady", "--config", cfg_path(SPIN_OSC), "--out", str(out),
               "--trunc-check"])
    assert rc == 0
    summary = json.loads((out / "steady_summary.json").read_text())
    assert summary["invariance_A"] <= 1e-9
    assert summary["deviation_B"] > 1e-4
    assert summary["residual"] <= 1e-9
    assert summary["lu_fill"] > 0 and summary["classes"] == 1
    assert summary["certified"] == 0
    assert isinstance(summary["truncation_shift"], float)
    with open(out / "rho_st_re.csv", newline="") as fh:
        rows = [[float(v) for v in r] for r in csv.reader(fh)]
    assert np.trace(np.array(rows)) == pytest.approx(1.0, abs=1e-12)
    assert (out / "rho_A_im.csv").exists() and (out / "rho_B_re.csv").exists()


def test_steady_reports_classes_at_zero_temperature(cfg_path, tmp_path):
    # A's damping only lowers its excitation: the system is solved class
    # by class, and the summary says how many classes there are and how
    # many solve to zero with no factorization
    out = tmp_path / "out"
    cfg = dict(SPIN_OSC, s=0.0, nbar=0.0)
    assert main(["steady", "--config", cfg_path(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "steady_summary.json").read_text())
    rep = model_steady(build_model(cfg))
    assert summary["classes"] == rep.classes > 1
    assert summary["certified"] == rep.certified == 1
    assert summary["lu_fill"] == rep.lu_fill > 0
    assert summary["residual"] <= 1e-9 and summary["invariance_A"] <= 1e-9


def test_spectrum_table(cfg_path, tmp_path):
    out = tmp_path / "out"
    # uncoupled, so the A eigenvalues embed verbatim in the composite
    # spectrum (paired with the stationary B mode)
    assert main(["spectrum", "--config", cfg_path(dict(TWO_SPINS, Omega=0.0)),
                 "--out", str(out)]) == 0
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    analytic = [r for r in rows[1:] if r[0] == "A_analytic"]
    numeric = [r for r in rows[1:] if r[0] == "full_numeric"]
    assert len(analytic) == 4
    assert len(numeric) == 16  # dim 4 superoperator
    stationary = [r for r in analytic if r[1] == "stationary"][0]
    assert float(stationary[2]) == 0.0 and float(stationary[3]) == 0.0
    # every analytic A rate appears in the composite spectrum
    num = np.array([[float(r[2]), float(r[3])] for r in numeric])
    for r in analytic:
        d = np.hypot(num[:, 0] - float(r[2]), num[:, 1] - float(r[3]))
        assert d.min() <= 1e-8


def test_verify_passes(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path(TWO_SPINS),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["all_pass"] is True
    checks = {c["name"]: c["value"] for c in payload["checks"]}
    assert list(checks) == ["trace_annihilation", "hermiticity_preservation",
                            "adjoint_pairing", "excitation_commutation",
                            "steady_invariance_A", "steady_residual"]
    # read off the stored entries of S, so exact for a commuting coupling
    assert checks["excitation_commutation"] == 0.0


def test_verify_fails_on_non_commuting_coupling(cfg_path, tmp_path,
                                                monkeypatch):
    # 0.3 sigma_x (b + b^dag) couples through A's lowering operator, so
    # the generator joins sectors l and l +- 1
    import lindpair.cli as cli

    cfg = dict(SPIN_OSC, n_trunc=4)
    bm = build_model(cfg)
    sm = hb.mk_spin_ops(bm.L.space.factors[0])[0].entries
    b = hb.mk_destroy(bm.L.space.factors[1]).entries
    H = hb.Operator(bm.L.space, bm.L.hamiltonian.entries
                    + 0.3 * np.kron(sm + sm.conj().T, b + b.conj().T))
    L_bad = Liouvillian(bm.L.space, H, bm.L.terms)
    monkeypatch.setattr(cli, "build_model", lambda c: dataclasses.replace(
        build_model(c), L=L_bad))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path(cfg), "--out", str(out)]) == 1
    payload = json.loads((out / "verify.json").read_text())
    assert payload["all_pass"] is False
    check = {c["name"]: c for c in payload["checks"]}["excitation_commutation"]
    assert check["pass"] is False and check["value"] > 1e-2


def test_figure_two(tmp_path):
    out = tmp_path / "fig"
    assert main(["figure", "2", "--out", str(out)]) == 0
    header, data = _read_csv(out / "fig2.csv")
    assert header[0] == "Omega_over_gamma_A"
    assert data.shape == (51, 3)
    # excitation grows with the drive
    assert np.all(np.diff(data[1:, 1]) > 0)


def test_cli_argument_errors(cfg_path, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["run"])  # --config is required
    with pytest.raises(SystemExit):
        main(["figure", "7"])
    # a bad config is an argument error: exit 2, the field named, no output
    bad = dict(TWO_SPINS, gamma_A=-1.0)
    out = tmp_path / "out"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["steady", "--config", cfg_path(bad), "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --config: gamma_A" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ('{"omega": 1}', "config needs a 'model' key"),
    ("no-such-config.json", "No such file or directory: 'no-such"),
    ('{"model": "two_spins",', "Expecting"),
])
def test_bad_config_exits_two(config, message, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["steady", "--config", config, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --config: " in err and message in err
    assert "Traceback" not in err and not out.exists()


def test_trunc_check_past_dense_limit_exits_two(cfg_path, tmp_path, capsys,
                                                 monkeypatch):
    # n_trunc 254 builds (d = 508), but its re-solve at n_trunc + 5 would
    # not (d = 518): an argument error, raised before any solve
    import lindpair.cli as cli
    solves = []
    monkeypatch.setattr(cli, "model_steady", solves.append)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["steady", "--trunc-check", "--config",
              cfg_path(dict(SPIN_OSC, n_trunc=254)), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --trunc-check: " in err
    assert "n_trunc" in err and "512" in err and "Traceback" not in err
    assert solves == []
    assert not (out / "steady_summary.json").exists()


@pytest.mark.parametrize("raw, dims", [
    (dict(SPIN_OSC, n_trunc=15), [30, 40]), (TWO_SPINS, [4])],
    ids=["spin_oscillator", "two_spins"])
def test_trunc_check_solves_base_once(raw, dims, cfg_path, tmp_path,
                                      monkeypatch):
    # the base solve of the truncation check is the one written; a
    # model without an oscillator has no enlarged solve
    import lindpair.cli as cli
    solved = []

    def spy(bm):
        solved.append(bm.L.dim)
        return model_steady(bm)
    monkeypatch.setattr(cli, "model_steady", spy)
    out = tmp_path / "out"
    assert main(["steady", "--trunc-check", "--config", cfg_path(raw),
                 "--out", str(out)]) == 0
    assert solved == dims
    summary = json.loads((out / "steady_summary.json").read_text())
    assert summary["residual"] <= 1e-9 and "truncation_shift" in summary


@pytest.mark.parametrize("flag, value", [
    ("--t-max", "nan"), ("--t-max", "inf"), ("--t-max", "0"),
    ("--t-max", "-1"), ("--t-max", "soon"), ("--samples", "0"),
])
def test_run_rejects_bad_horizon_and_samples(flag, value, cfg_path, tmp_path,
                                             capsys):
    # a nan or inf horizon once wrote the unpropagated initial state
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg_path(TWO_SPINS), flag, value,
              "--out", str(out)])
    assert exc.value.code != 0
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_matrix_csv_bytes_match_csv_writer(tmp_path):
    # signed zero, the smallest subnormal, a huge negative and a plain
    # value, in both parts and in a non-square matrix
    vals = np.array([[-0.0, 5e-324, -1.5e200], [1.0, -1.5e200, 5e-324]])
    mat = np.empty(vals.shape, dtype=complex)
    mat.real, mat.imag = vals, vals[::-1, ::-1]
    _write_matrix_pair(tmp_path, "m", mat)
    for part, data in (("re", mat.real), ("im", mat.imag)):
        expect = io.StringIO(newline="")
        csv.writer(expect).writerows([[f"{v:.16e}" for v in row]
                                      for row in data])
        got = (tmp_path / f"m_{part}.csv").read_bytes()
        assert got == expect.getvalue().encode()
        assert got.count(b"\r\n") == 2 and got.endswith(b"\r\n")
        assert got.startswith(b"-0.0000000000000000e+00,"
                              if part == "re" else b"4.9406564584124654e-324,")


def test_matrix_csv_keeps_signed_zeros_and_repeats(tmp_path):
    # values repeat across rows and columns, and 0.0 and -0.0 share a
    # part: each is written as csv.writer writes it
    vals = np.array([[0.0, -0.0, 0.25, 0.0], [0.25, 0.0, -0.0, np.inf],
                     [-0.0, 1e-300, 0.25, -0.0]])
    mat = np.empty(vals.shape, dtype=complex)
    mat.real, mat.imag = vals, vals[::-1]
    _write_matrix_pair(tmp_path, "z", mat)
    for part, data in (("re", mat.real), ("im", mat.imag)):
        expect = io.StringIO(newline="")
        csv.writer(expect).writerows([[f"{v:.16e}" for v in row]
                                      for row in data])
        assert (tmp_path / f"z_{part}.csv").read_bytes() == \
            expect.getvalue().encode()


def test_parser_reused_within_one_process(cfg_path, tmp_path):
    # one parser serves every call; each call behaves as if it were the
    # first: no flag, default or error carries over
    assert _parser() is _parser()
    cfg = cfg_path(SPIN_OSC)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["steady", "--config", cfg, "--out", str(first),
                 "--trunc-check"]) == 0
    assert main(["steady", "--config", cfg, "--out", str(second)]) == 0
    summary = [json.loads((out / "steady_summary.json").read_text())
               for out in (first, second)]
    assert "truncation_shift" in summary[0]
    assert "truncation_shift" not in summary[1]
    assert summary[0]["residual"] == summary[1]["residual"]
    for name in ("rho_st_re.csv", "rho_A_im.csv", "rho_B_re.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["steady", "--out", str(tmp_path / "bad")])
    assert exc.value.code != 0
    out = tmp_path / "verify"
    assert main(["verify", "--config", cfg_path(TWO_SPINS),
                 "--out", str(out)]) == 0
    assert json.loads((out / "verify.json").read_text())["all_pass"] is True


@pytest.mark.parametrize("argv", [[], ["run"], ["steady"], ["spectrum"],
                                  ["verify"], ["figure"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    assert "usage: lindpair" in capsys.readouterr().out


def test_commands_looked_up_at_call_time(monkeypatch, cfg_path, tmp_path):
    # the cached parser must not bind the command functions: a wrapper
    # installed on the module after the first call still runs
    import lindpair.cli as cli

    main(["spectrum", "--config", cfg_path(TWO_SPINS),
          "--out", str(tmp_path / "warm")])
    seen = []
    monkeypatch.setattr(cli, "cmd_spectrum",
                        lambda args: seen.append(args.out) or 0)
    assert main(["spectrum", "--config", cfg_path(TWO_SPINS),
                 "--out", "wrapped"]) == 0
    assert seen == ["wrapped"]


def test_cli_import_leaves_lazy_modules_unloaded():
    # scipy.integrate (the ansatz flow) and scipy.sparse.csgraph (the
    # steady analysis) are imported where they are used: at module level
    # they would add to the start-up time and memory of every command
    lazy = ("scipy.integrate", "scipy.sparse.csgraph")
    code = ("import sys, lindpair.cli; "
            f"print([m for m in {lazy!r} if m in sys.modules])")
    env = dict(os.environ,
               PYTHONPATH=str(Path(lindpair.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
