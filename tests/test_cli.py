import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import REF
from qcorr.cli import main
from qcorr import errors
from qcorr.states import CorrelationVector, bd_to_xstate

STATE = "%.17g,%.17g,%.17g" % REF


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_reference(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, stdout, stderr = run(
        capsys, "simulate", "--channel", "pd", "--state", STATE, "--out", str(out)
    )
    assert code == 0 and stderr == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "p,r1,r2,r3,E_hs,D_hs,C,D_tr,branch_hs,branch_tr"
    assert len(lines) == 1002
    first = lines[1].split(",")
    np.testing.assert_allclose(float(first[5]), 0.4925)  # D_hs at p=0
    assert "SuddenDeathEntanglement" in stdout

    events = json.loads((tmp_path / "traj.events.json").read_text())["events"]
    kinds = [(e["kind"], e["norm"]) for e in events]
    assert kinds.count(("SuddenChangeDiscord", "trace")) == 2
    assert kinds.count(("SuddenChangeDiscord", "hs")) == 1
    death = [e for e in events if e["kind"] == "SuddenDeathEntanglement"]
    assert len(death) == 2
    np.testing.assert_allclose(death[0]["p_detected"], 0.2928932188134524, atol=1e-8)


def test_simulate_nonphysical_exit3(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "simulate", "--channel", "pd", "--state", "2,0,0",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 3
    assert stderr.startswith("NonPhysical: eigenvalue -0.25")
    assert stderr.count("\n") == 1


def test_simulate_nan_state_exit3(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, stderr = run(
        capsys, "simulate", "--channel", "pd", "--state", "nan,0,0", "--out", str(out)
    )
    assert code == 3
    assert stderr.startswith("NonPhysical:") and stderr.count("\n") == 1
    assert not out.exists()


def test_unwritable_out_exit2(tmp_path, capsys):
    missing = tmp_path / "nodir"
    for argv in (
        ("simulate", "--channel", "pd", "--state", STATE, "--out", str(missing / "x.csv")),
        ("verify", "--grid", "3", "--xstates", "2", "--wootters", "10",
         "--out", str(missing / "r.json")),
    ):
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert stderr.startswith("ConfigError:") and stderr.count("\n") == 1


def test_simulate_too_many_samples_exit2(tmp_path, capsys):
    # 1e20 samples exceed the largest array numpy can describe, so nothing is
    # allocated; a count that fits in an index but not in memory is not tried
    out = tmp_path / "x.csv"
    code, _, stderr = run(
        capsys, "simulate", "--channel", "pd", "--state", STATE,
        "--samples", "100000000000000000000", "--out", str(out),
    )
    assert code == 2
    assert stderr.startswith("ConfigError: n_samples") and stderr.count("\n") == 1
    assert not out.exists()


def test_simulate_degenerate_ordering_death_analytic(tmp_path, capsys):
    # |r1| = |r2|: no sudden-change analysis, but the death time is still known
    code, stdout, _ = run(
        capsys, "simulate", "--channel", "pd", "--state", "0.5,0.5,-0.5",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0
    deaths = [line for line in stdout.splitlines() if line.startswith("SuddenDeathEntanglement")]
    assert len(deaths) == 2
    for line in deaths:
        fields = dict(f.split("=") for f in line.split()[1:])
        np.testing.assert_allclose(float(fields["p_analytic"]), 1 - np.sqrt(0.5), atol=1e-15)
        assert abs(float(fields["p_analytic"]) - float(fields["p_detected"])) <= 1e-6


def test_verify_missing_out_dir_fails_before_work(tmp_path, capsys, monkeypatch):
    def fail(**kwargs):
        raise AssertionError("verify ran before its output path was checked")

    monkeypatch.setattr("qcorr.cli.run_verification", fail)
    code, stdout, stderr = run(capsys, "verify", "--out", str(tmp_path / "nodir" / "r.json"))
    assert code == 2 and stdout == ""
    assert stderr.startswith("ConfigError:") and stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("simulate", "--seed", "1"),
     ("curve", "--seed", "1"),
     ("relate", "--seed", "1", "--norm", "hs"),
     ("simulate", "--norm", "hs"),
     ("relate", "--norm", "both")],
)
def test_removed_options_exit2(argv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, stderr = run(capsys, *argv, "--channel", "pd", "--state", STATE, "--out", str(out))
    assert code == 2 and not out.exists()
    assert stderr.startswith("ConfigError:") and stderr.count("\n") == 1


def test_simulate_depol_no_sudden_changes(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "simulate", "--channel", "depol", "--state", "-0.7,-0.7,-0.7",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert "SuddenChangeDiscord" not in stdout


def test_simulate_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "simulate", "--channel", "bf", "--state", STATE, "--out", str(a))
    run(capsys, "simulate", "--channel", "bf", "--state", STATE, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_relate_reference(tmp_path, capsys):
    out = tmp_path / "rel.csv"
    code, stdout, _ = run(
        capsys, "relate", "--channel", "pd", "--state", STATE, "--norm", "trace",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "E,D,branch,extrapolated"
    first = lines[1].split(",")
    np.testing.assert_allclose([float(first[0]), float(first[1])], [0.31, 0.59])
    assert stdout.count("kink") == 2


def test_relate_separable_exit4(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "relate", "--channel", "pd", "--state", "0.2,0.1,0.05",
        "--norm", "hs", "--out", str(tmp_path / "r.csv"),
    )
    assert code == 4 and stderr.startswith("EmptyWindow:")


def test_relate_requires_single_norm(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "relate", "--channel", "pd", "--state", STATE,
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2 and stderr.startswith("ConfigError:")


def test_curve_reference(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "curve", "--channel", "pd", "--state", STATE, "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,E_hs,D_hs,branch_hs,C,D_tr,branch_tr"
    assert len(lines) > 200


def test_bad_channel_exit2(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "simulate", "--channel", "amp", "--state", STATE,
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2
    assert stderr.startswith("ConfigError:") and stderr.count("\n") == 1


def test_fixed_p_rejected_for_sweeps(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "simulate", "--channel", "pd:0.3", "--state", STATE,
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2 and stderr.count("\n") == 1
    assert stderr.startswith("ConfigError: unknown channel 'pd:0.3'")


def test_xstate_input(tmp_path, capsys):
    x = bd_to_xstate(CorrelationVector(*REF))
    path = tmp_path / "x.json"
    path.write_text(json.dumps(x.to_json()))
    out = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys, "simulate", "--channel", "pd", "--xstate", str(path), "--out", str(out)
    )
    assert code == 0
    first = out.read_text().splitlines()[1].split(",")
    np.testing.assert_allclose(
        [float(v) for v in first[1:4]], list(REF), atol=1e-12
    )


def test_xstate_not_bell_diagonal(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"diag": [0.4, 0.2, 0.2, 0.2], "e": [0.1, 0], "f": [0.1, 0]}))
    code, _, stderr = run(
        capsys, "simulate", "--channel", "pd", "--xstate", str(path),
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2 and "a/d" in stderr


def test_verify_small_and_exit_codes(tmp_path, capsys):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    argv = ["verify", "--seed", "7", "--grid", "5", "--xstates", "10", "--wootters", "50"]
    code, _, _ = run(capsys, *argv, "--out", str(out1))
    assert code == 0
    run(capsys, *argv, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["all_pass"] is True
    assert {c["measure"] for c in report["checks"]} >= {
        "hs_discord_vs_closest_classical",
        "trace_discord_vs_closest_classical",
        "xfamily_oracle_vs_concurrence",
        "wootters_vs_concurrence_x",
    }
    for c in report["checks"]:
        assert set(c) >= {"measure", "max_abs_deviation", "worst_case_state", "evaluations"}


def test_verify_mutation_exit5(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "verify", "--seed", "7", "--grid", "5", "--xstates", "5",
        "--wootters", "20", "--mutate", "--out", str(tmp_path / "v.json"),
    )
    assert code == 5 and stderr.startswith("VerifyFailure:")


@pytest.mark.parametrize(
    "sizes",
    [("--grid", "3", "--xstates", "0", "--wootters", "10"),
     ("--grid", "3", "--xstates", "2", "--wootters", "0"),
     ("--grid", "0", "--xstates", "2", "--wootters", "10")],
)
def test_verify_empty_sizes_exit2(sizes, tmp_path, capsys):
    code, stdout, stderr = run(capsys, "verify", *sizes, "--out", str(tmp_path / "v.json"))
    assert code == 2 and stdout == ""
    assert stderr.startswith("ConfigError:") and stderr.count("\n") == 1


# each sweep option has valid values and broken ones; an argv breaks at most two
_SWEEP_OPTIONS = {
    "--channel": (("pd", "bf", "bpf", "pf", "depol", "PD"), ("pd:0.3", "amp", "")),
    "--state": (
        ("0.65,0.59,-0.38", "0.9,-0.3,0.2", "0.5,0.5,-0.5", "-0.0,0,1", "0.2,0.1,0.05"),
        ("nan,0,0", "0,-inf,0", "1e308,0,0", "2,0,0", "0.5,0.5", "a,b,c", "0.1,0.1,0.1,0.1"),
    ),
    "--pmax": (("1", "0.3", "1e-300"), ("0", "-1", "nan", "inf", "1.5", "x")),
    # sample counts that cannot allocate: too few, few, the default, or beyond any array
    "--samples": (("2", "3", "11", "1001"), ("-1", "0", "1", str(10**20), "1e3")),
}
_XSTATE_TEXTS = (
    json.dumps({"diag": [0.4, 0.1, 0.1, 0.4], "e": [0.3, 0.0], "f": [0.0, 0.0]}),
    json.dumps({"diag": [0.25] * 4, "e": [0.0, 0.1], "f": [0.2, 0.0]}),
    json.dumps({"diag": [float("nan"), 0.1, 0.1, 0.4], "e": [0.3, 0.0], "f": [0.0, 0.0]}),
    json.dumps({"diag": [0.25] * 4, "e": [1e308, 0.0], "f": [0.0, -1e308]}),
    json.dumps({"diag": [0.25] * 4, "e": [0.0, float("inf")], "f": [0.0, 0.0]}),
    json.dumps({"diag": [0.25, 0.25], "e": [0.0], "f": "x"}),
    '{"diag": [0.25, 0.25, 0.25, 0.25], "e": [0.1,',
    "null",
    "[]",
)


@st.composite
def _argv(draw):
    """argv for a sweep command, or for a minimal verify with an extra X state."""
    command = draw(st.sampled_from(("verify", "simulate", "relate", "curve")))
    if command == "verify":
        return ["verify", "--grid", "1", "--xstates", "1", "--wootters", "1"], draw(
            st.sampled_from(_XSTATE_TEXTS)
        )
    broken = draw(st.sets(st.sampled_from(sorted(_SWEEP_OPTIONS)), max_size=2))
    argv = [command]
    for option, (good, bad) in _SWEEP_OPTIONS.items():
        argv += [option, draw(st.sampled_from(bad if option in broken else good))]
    if command == "relate":
        argv += ["--norm", draw(st.sampled_from(("hs", "trace", "both")))]
    return argv, None


@given(_argv())
def test_cli_exit_contract(case):
    """Every argv exits with a documented code; a failure prints exactly one
    stderr line and no traceback."""
    argv, xstate_text = case
    with tempfile.TemporaryDirectory() as tmp:
        if xstate_text is not None:
            path = Path(tmp) / "x.json"
            path.write_text(xstate_text)
            argv = argv + ["--xstate", str(path)]
        argv = argv + ["--out", str(Path(tmp) / "out.csv")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    if code == 0:
        assert stderr == ""
    else:
        assert stderr.count("\n") == 1 and stderr.endswith("\n")


_ERRORS = [v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, errors.QcorrError)]
# the documented exit codes; every other qcorr error exits 2
_EXIT_CODES = {errors.NonPhysical: 3, errors.EmptyWindow: 4, errors.VerifyFailure: 5}


@pytest.mark.parametrize("error", _ERRORS, ids=lambda cls: cls.__name__)
def test_error_exit_codes(error, capsys, monkeypatch):
    def fail(**kwargs):
        raise error("eigensolve failed: did not converge")

    assert error.exit_code == _EXIT_CODES.get(error, 2)
    monkeypatch.setattr("qcorr.cli.run_verification", fail)
    code, stdout, stderr = run(capsys, "verify", "--grid", "1")
    assert code == error.exit_code and stdout == ""
    name = "ConfigError" if error is errors.OutOfRange else error.__name__
    assert stderr == "%s: eigensolve failed: did not converge\n" % name


def test_simulate_lists_unmatched_sudden_changes(tmp_path, capsys):
    # three samples (p = 0, 1/2, 1) see none of the four trace sudden changes
    out = tmp_path / "pf.csv"
    code, stdout, _ = run(
        capsys, "simulate", "--channel", "pf", "--state", "0.65,0.59,-0.38",
        "--samples", "3", "--out", str(out),
    )
    assert code == 0
    unmatched = json.loads((tmp_path / "pf.events.json").read_text())["unmatched"]
    assert [(e["kind"], e["norm"]) for e in unmatched] == [("SuddenChangeDiscord", "trace")] * 4
    np.testing.assert_allclose(
        [e["p_analytic"] for e in unmatched], [0.0987, 0.1177, 0.8823, 0.9013], atol=1e-4
    )
    listed = [line for line in stdout.splitlines() if "p_detected=none" in line]
    assert listed == [
        "SuddenChangeDiscord norm=trace p_detected=none p_analytic=%.17g" % e["p_analytic"]
        for e in unmatched
    ]


def test_unmatched_absent_when_every_change_is_detected(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "simulate", "--channel", "pd", "--state", "0.65,0.59,-0.38",
        "--pmax", "0.3", "--samples", "3", "--out", str(tmp_path / "pd.csv"),
    )
    assert code == 0 and "p_detected=none" not in stdout
    assert set(json.loads((tmp_path / "pd.events.json").read_text())) == {"events"}
