import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qcorr
from conftest import REF
from qcorr.cli import _write_columns, build_parser, main
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


@pytest.mark.parametrize("value, shown", [
    ("-inf,0,0", "-inf, 0, 0"),
    ("-Infinity,0,0", "-inf, 0, 0"),
    ("-nan,0,0", "nan, 0, 0"),
    ("-NaN,0.1,0.2", "nan, 0.1, 0.2"),
])
def test_simulate_negative_nonfinite_state_exit3(value, shown, tmp_path, capsys):
    # a leading "-inf" or "-nan" is an option value, like "-0.7", not an option name
    out = tmp_path / "x.csv"
    code, _, stderr = run(capsys, "simulate", "--channel", "pd", "--state", value, "--out", str(out))
    assert code == 3 and not out.exists()
    assert stderr == "NonPhysical: correlation vector (%s) is not finite\n" % shown


def test_simulate_dash_word_state_exit2(tmp_path, capsys):
    code, _, stderr = run(capsys, "simulate", "--channel", "pd", "--state", "-x,0,0",
                          "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert stderr == "ConfigError: argument --state: expected one argument\n"


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
    # |r1| = |r2| = |r3|: the moduli never cross, and the death time is analytic
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


@pytest.mark.parametrize("state, rows, marked", [("0.9,0.5,-0.5", 403, 148), ("0.9,0.49,-0.5", 401, 146)],
                         ids=["tied", "below"])
def test_relate_marks_the_single_change_trace_piece(tmp_path, capsys, state, rows, marked):
    # |r2| ties |r3| or lies below it, so |r1| alone crosses |r3|: past that one
    # change the curve follows |r1| g, marked extrapolated up to sudden death
    out = tmp_path / "rel.csv"
    code, stdout, _ = run(
        capsys, "relate", "--channel", "pd", "--state", state, "--norm", "trace", "--out", str(out),
    )
    table = [line.split(",") for line in out.read_text().splitlines()[1:]]
    flags = [row[3] for row in table]
    assert code == 0 and stdout.count("kink") == 1 and len(table) == rows
    assert flags == ["false"] * (rows - marked) + ["true"] * marked
    assert {row[2] for row in table[rows - marked:]} == {"r1"}


def test_simulate_at_the_smallest_pmax(tmp_path, capsys):
    # every row is 0 or the smallest subnormal, so no cell brackets an event
    code, stdout, stderr = run(
        capsys, "simulate", "--channel", "pf", "--state", "0.5,-0.49999999999,0.3",
        "--pmax", "5e-324", "--out", str(tmp_path / "tiny.csv"),
    )
    assert code == 0 and stdout == stderr == ""


@pytest.mark.parametrize("command", [("relate", "--norm", "hs"), ("curve",)], ids=["relate", "curve"])
@pytest.mark.parametrize("state, shown", [("0.2,0.1,0.05", "0.2, 0.1, 0.05"), ("-0.0,0,1", "-0, 0, 1")],
                         ids=["positive", "signed-zero"])
def test_separable_state_exit4(tmp_path, capsys, command, state, shown):
    # the line formats row 0 of the trajectory, which keeps the sign of a zero
    code, _, stderr = run(
        capsys, *command, "--channel", "pd", "--state=" + state, "--out", str(tmp_path / "r.csv"),
    )
    assert code == 4
    assert stderr == "EmptyWindow: initial state (%s) is separable\n" % shown


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


@pytest.mark.parametrize("entry, shown", [
    ({"diag": [float("nan"), 0.25, 0.25, 0.25]}, "nan, 0.25, 0.25, 0.25, 0, 0"),
    ({"e": [float("inf"), 0.0]}, "0.25, 0.25, 0.25, 0.25, inf, 0"),
    ({"f": [0.0, -float("inf")]}, "0.25, 0.25, 0.25, 0.25, 0, inf"),
], ids=["a-nan", "e-inf", "f-minus-inf"])
def test_xstate_not_finite(tmp_path, capsys, entry, shown):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"diag": [0.25] * 4, "e": [0.0, 0.0], "f": [0.0, 0.0], **entry}))
    code, _, stderr = run(
        capsys, "simulate", "--channel", "pd", "--xstate", str(path),
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 3
    assert stderr == "NonPhysical: X state (a, b, c, d, |e|, |f|) = (%s) is not finite\n" % shown


@pytest.mark.parametrize("state, message", [
    ((), "one of the arguments --state --xstate is required"),
    (("--state", "0.1,0.2,0.3", "--xstate"), "argument --xstate: not allowed with argument --state"),
], ids=["neither", "both"])
def test_state_selection_exit2(tmp_path, capsys, state, message):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(bd_to_xstate(CorrelationVector(*REF)).to_json()))
    out = tmp_path / "x.csv"
    argv = (*state, str(path)) if state else ()
    code, stdout, stderr = run(capsys, "simulate", "--channel", "pd", *argv, "--out", str(out))
    assert (code, stdout, stderr) == (2, "", "ConfigError: %s\n" % message) and not out.exists()


def test_parser_reads_typed_inputs_and_verify_defaults():
    from qcorr.channels import ChannelKind

    args = build_parser().parse_args(["simulate", "--channel", "PD", "--state", STATE, "--out", "t.csv"])
    assert args.channel is ChannelKind.PHASE_DAMPING
    assert isinstance(args.r0, CorrelationVector) and args.r0 == CorrelationVector(*REF)
    args = build_parser().parse_args(["verify"])
    assert (args.seed, args.grid, args.xstates, args.wootters) == (42, 9, 1000, 10000)
    assert args.xstate is None and args.out is None and args.mutate is False


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
     ("--grid", "0", "--xstates", "2", "--wootters", "10"),
     # sizes beyond any array: exit before the first draw, which would not end
     ("--grid", str(10**20), "--xstates", "2", "--wootters", "10"),
     ("--grid", "3", "--xstates", str(10**20), "--wootters", "10"),
     ("--grid", "3", "--xstates", "2", "--wootters", str(10**20))],
)
def test_verify_empty_sizes_exit2(sizes, tmp_path, capsys):
    code, stdout, stderr = run(capsys, "verify", *sizes, "--out", str(tmp_path / "v.json"))
    assert code == 2 and stdout == ""
    assert stderr.startswith("ConfigError:") and stderr.count("\n") == 1


def test_verify_negative_seed_exit2(tmp_path, capsys):
    # numpy's generators take no negative seed: exit before the first draw
    code, stdout, stderr = run(capsys, "verify", "--seed", "-1", "--grid", "1", "--out", str(tmp_path / "v.json"))
    assert code == 2 and stdout == "" and not (tmp_path / "v.json").exists()
    assert stderr == "ConfigError: seed: -1 is below 0\n"


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
# verify sizes: the smallest run, or sizes below 1 or beyond any array
_VERIFY_SIZES = {option: (("1",), ("0", "-1", str(10**20))) for option in ("--grid", "--xstates", "--wootters")}
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
    """argv for a sweep command, or for a minimal verify (sizes 1, or out of
    range) with an extra X state."""
    command = draw(st.sampled_from(("verify", "simulate", "relate", "curve")))
    if command == "verify":
        broken = draw(st.sets(st.sampled_from(sorted(_VERIFY_SIZES)), max_size=2))
        argv = ["verify"]
        for option, (good, bad) in _VERIFY_SIZES.items():
            argv += [option, draw(st.sampled_from(bad if option in broken else good))]
        return argv, draw(st.sampled_from(_XSTATE_TEXTS))
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


PF3 = ("--channel", "pf", "--state", "0.65,0.59,-0.38", "--samples", "3")


def _add_undetectable_events(monkeypatch):
    """Add an analytic trace sudden change at p = 0.25 and move the analytic
    death to p = 0.3, where no crossing of the moduli or of the margin lies."""
    import qcorr.dynamics as dyn
    from qcorr.quantifiers import Norm
    from qcorr.relations import CriticalTimes, critical_times

    def with_extra_change(case):
        extra = (0.25,) if case.norm is Norm.TRACE else ()
        return CriticalTimes(tuple(sorted(critical_times(case).sudden_changes + extra)), 0.3, math.inf)

    monkeypatch.setattr(dyn, "critical_times", with_extra_change)


def test_simulate_lists_unmatched_sudden_changes(tmp_path, capsys, monkeypatch):
    # the rows p = 0, 1/2, 1 bracket all four trace sudden changes
    out = tmp_path / "pf.csv"
    code, stdout, _ = run(capsys, "simulate", *PF3, "--out", str(out))
    doc = json.loads((tmp_path / "pf.events.json").read_text())
    assert code == 0 and "unmatched" not in doc and "p_detected=none" not in stdout
    trace = [e for e in doc["events"] if e["kind"] == "SuddenChangeDiscord" and e["norm"] == "trace"]
    np.testing.assert_allclose(
        [e["p_analytic"] for e in trace], [0.0987, 0.1177, 0.8823, 0.9013], atol=1e-4
    )
    assert all(abs(e["p_detected"] - e["p_analytic"]) <= 1e-6 for e in trace)

    # analytic events that no detection has are listed, per norm in order of p
    _add_undetectable_events(monkeypatch)
    code, stdout, _ = run(capsys, "simulate", *PF3, "--out", str(out))
    doc = json.loads((tmp_path / "pf.events.json").read_text())
    assert code == 0
    assert doc["unmatched"] == [
        {"kind": "SuddenDeathEntanglement", "norm": "hs", "p_analytic": 0.3},
        {"kind": "SuddenChangeDiscord", "norm": "trace", "p_analytic": 0.25},
        {"kind": "SuddenDeathEntanglement", "norm": "trace", "p_analytic": 0.3},
    ]
    # the death detected at p = 0.1464 lies too far from 0.3 to be matched to it
    deaths = [e for e in doc["events"] if e["kind"] == "SuddenDeathEntanglement"]
    assert len(deaths) == 2 and all(e["p_analytic"] is None for e in deaths)
    listed = [line for line in stdout.splitlines() if "p_detected=none" in line]
    assert listed == [
        "%s norm=%s p_detected=none p_analytic=%.17g" % (e["kind"], e["norm"], e["p_analytic"])
        for e in doc["unmatched"]
    ]


def test_unmatched_absent_when_every_change_is_detected(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "simulate", "--channel", "pd", "--state", "0.65,0.59,-0.38",
        "--pmax", "0.3", "--samples", "3", "--out", str(tmp_path / "pd.csv"),
    )
    assert code == 0 and "p_detected=none" not in stdout
    assert set(json.loads((tmp_path / "pd.events.json").read_text())) == {"events"}


def test_relate_lists_unmatched_sudden_changes(tmp_path, capsys, monkeypatch):
    from qcorr.channels import ChannelKind
    from qcorr.quantifiers import Norm
    from qcorr.relations import RelationCase, critical_times

    # the same four trace changes that three samples detect in simulate
    relate = ("relate", *PF3, "--norm", "trace", "--out", str(tmp_path / "r.csv"))
    code, stdout, _ = run(capsys, *relate)
    analytic = critical_times(RelationCase(ChannelKind.PHASE_FLIP, Norm.TRACE, CorrelationVector(*REF)))
    assert code == 0 and len(analytic.sudden_changes) == 4
    kinks = [float(line.split("=")[1]) for line in stdout.splitlines()]
    np.testing.assert_allclose(kinks, analytic.sudden_changes, rtol=0, atol=1e-6)

    # detection never reads the analytic times; an unmatched change is a
    # kink p=none, and an unmatched death, which curve lists, is no kink
    _add_undetectable_events(monkeypatch)
    detected = stdout
    code, stdout, _ = run(capsys, *relate)
    assert code == 0
    assert stdout.splitlines() == detected.splitlines() + ["kink p=none p_analytic=0.25"]
    _, curve_out, _ = run(capsys, "curve", *PF3, "--out", str(tmp_path / "c.csv"))
    assert [line for line in curve_out.splitlines() if "p_detected=none" in line] == [
        "SuddenDeathEntanglement norm=hs p_detected=none p_analytic=0.29999999999999999",
        "SuddenChangeDiscord norm=trace p_detected=none p_analytic=0.25",
        "SuddenDeathEntanglement norm=trace p_detected=none p_analytic=0.29999999999999999",
    ]


def test_parser_is_reused_without_carrying_values(tmp_path, capsys):
    common = ("--channel", "pd", "--state", STATE, "--samples", "51")
    relate = ("relate", *common, "--pmax", "0.5", "--norm", "hs")
    simulate = ("simulate", *common)  # --pmax left at its default

    def outputs(argv, name):
        out = tmp_path / name
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        files = sorted(tmp_path.glob(Path(name).stem + ".*"))
        return code, stdout, stderr, [f.read_bytes() for f in files]

    first = {}
    for argv in (relate, simulate):
        build_parser.cache_clear()
        first[argv] = outputs(argv, "first_%s.csv" % argv[0])
    build_parser.cache_clear()
    parser = build_parser()
    code, _, stderr = run(capsys, "relate", *common, "--norm", "both", "--out", str(tmp_path / "x.csv"))
    assert code == 2 and stderr.startswith("ConfigError:")
    for argv in (relate, simulate):
        assert outputs(argv, "again_%s.csv" % argv[0]) == first[argv]
    assert build_parser() is parser
    args = parser.parse_args([*simulate, "--out", "t.csv"])
    assert args.pmax == 1.0 and not hasattr(args, "norm")


def test_write_columns_matches_per_value_format(tmp_path):
    floats = np.array([-0.0, 5e-324, 1e-300, 0.1, 1 / 3, float(2**53 + 1), np.nan, np.inf, -np.inf])
    labels = np.array(["D1", "r2", "true", "false", "%s", "%", "%.17g", "", "r3"])
    columns = [floats, labels, floats[::-1].copy()]
    path = tmp_path / "t.csv"
    for n in (len(floats), 0):
        _write_columns(str(path), "a,b,c", [c[:n] for c in columns])
        rows = [",".join(c[k] if c.dtype.kind == "U" else "%.17g" % c[k] for c in columns)
                for k in range(n)]
        assert path.read_bytes() == ("\n".join(["a,b,c", *rows]) + "\n").encode()


def _qcorr_process(*argv):
    """python -m qcorr in a fresh interpreter that imports this checkout's qcorr."""
    src = str(Path(qcorr.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "qcorr", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )


def test_module_entry_point(tmp_path, capsys):
    argv = ("simulate", "--channel", "pd", "--state", STATE, "--samples", "101")
    proc = _qcorr_process(*argv, "--out", str(tmp_path / "process.csv"))
    code, stdout, _ = run(capsys, *argv, "--out", str(tmp_path / "in_process.csv"))
    assert proc.returncode == code == 0 and proc.stderr == "" and proc.stdout == stdout
    assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()

    bad = _qcorr_process("simulate", "--channel", "amp", "--state", STATE, "--out", str(tmp_path / "x.csv"))
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("ConfigError: unknown channel 'amp'")
    assert bad.stderr.count("\n") == 1 and "Traceback" not in bad.stderr
