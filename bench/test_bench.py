"""Tests of the benchmark's reference code and checks.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import reference as ref  # noqa: E402
from qcorr import cli  # noqa: E402

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _spin_flip_concurrence(r) -> float:
    """Wootters concurrence of the Bell-diagonal state (I + sum r_j s_j x s_j) / 4."""
    rho = np.eye(4, dtype=complex)
    for rj, s in zip(r, _PAULI):
        rho = rho + rj * np.kron(s, s)
    rho /= 4.0
    yy = np.kron(_PAULI[1], _PAULI[1])
    lams = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
    l = np.sort(np.sqrt(np.clip(lams.real, 0.0, None)))[::-1]
    return max(0.0, l[0] - l[1] - l[2] - l[3])


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _state(r0) -> str:
    return ",".join("%.17g" % v for v in r0)


def test_reference_concurrence_matches_spin_flip():
    rng = np.random.default_rng(7)
    states = []
    for _ in range(200):
        w = rng.dirichlet(np.ones(4))
        states.append((w[0] - w[1] + w[2] - w[3], -w[0] + w[1] + w[2] - w[3], w[0] + w[1] - w[2] - w[3]))
    states += ref.entangled_states(rng, 50)
    got = ref.concurrence(np.array(states))
    want = np.array([_spin_flip_concurrence(r) for r in states])
    assert np.max(np.abs(got - want)) < 1e-10
    assert np.count_nonzero(want > 1e-3) >= 50


def _perturb(text: str, row: int, col: int, delta: float) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = "%.17g" % (float(fields[col]) + delta)
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("channel", ref.CHANNELS)
def test_simulate_check_rejects_one_perturbed_value(tmp_path, channel):
    out = tmp_path / "traj.csv"
    assert _run(["simulate", "--channel", channel, "--state", _state(ref.REFERENCE_STATE), "--out", str(out)]) == 0
    text, events = out.read_text(), (tmp_path / "traj.events.json").read_text()
    assert ref.check_simulate(text, events, channel, ref.REFERENCE_STATE, 1.0, 1001) == 1001
    with pytest.raises(ref.CheckFailed):
        ref.check_simulate(_perturb(text, 500, 5, 1e-9), events, channel, ref.REFERENCE_STATE, 1.0, 1001)
    moved = json.loads(events)
    moved["events"][0]["p_detected"] += 1e-5
    with pytest.raises(ref.CheckFailed):
        ref.check_simulate(text, json.dumps(moved), channel, ref.REFERENCE_STATE, 1.0, 1001)


@pytest.mark.parametrize("norm", ["hs", "trace"])
def test_relate_and_curve_checks_reject_one_perturbed_value(tmp_path, norm):
    r0 = ref.entangled_states(np.random.default_rng(3), 1)[0]
    rel, cur = tmp_path / "rel.csv", tmp_path / "cur.csv"
    assert _run(["relate", "--channel", "bf", "--state", _state(r0), "--norm", norm, "--out", str(rel)]) == 0
    assert _run(["curve", "--channel", "bf", "--state", _state(r0), "--out", str(cur)]) == 0
    rel_text, cur_text = rel.read_text(), cur.read_text()
    rows = ref.check_relate(rel_text, "bf", r0, norm, 1.0, 1001)
    assert rows == ref.check_curve(cur_text, "bf", r0, 1.0, 1001) > 1
    with pytest.raises(ref.CheckFailed):
        ref.check_relate(_perturb(rel_text, rows // 2, 1, 1e-11), "bf", r0, norm, 1.0, 1001)
    with pytest.raises(ref.CheckFailed):
        ref.check_curve(_perturb(cur_text, rows // 2, 4, -1e-11), "bf", r0, 1.0, 1001)
    with pytest.raises(ref.CheckFailed):  # one row short of sudden death
        ref.check_curve("\n".join(cur_text.splitlines()[:-1]) + "\n", "bf", r0, 1.0, 1001)


_SIZES = ["--grid", "3", "--xstates", "2", "--wootters", "20"]


def test_verify_check_accepts_a_clean_report_and_rejects_mutate(tmp_path):
    out = tmp_path / "report.json"
    rc = _run(["verify", "--seed", "5", *_SIZES, "--out", str(out)])
    assert ref.check_verify(rc, out.read_text(), 5, 3, 2, 20) == 3 * ref.physical_grid_size(3) + 2 * 2 + 20

    with contextlib.redirect_stderr(io.StringIO()):
        rc = _run(["verify", "--seed", "5", *_SIZES, "--mutate", "--out", str(out)])
    assert rc == 5
    with pytest.raises(ref.CheckFailed):
        ref.check_verify(rc, out.read_text(), 5, 3, 2, 20)
    with pytest.raises(ref.CheckFailed):  # a failing report is rejected even when the exit code hides it
        ref.check_verify(0, out.read_text(), 5, 3, 2, 20)


def test_verify_check_rejects_loosened_tolerance(tmp_path):
    out = tmp_path / "report.json"
    assert _run(["verify", "--seed", "6", *_SIZES, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    report["checks"][3]["tolerance"] = 1e-2
    with pytest.raises(ref.CheckFailed):
        ref.check_verify(0, json.dumps(report), 6, 3, 2, 20)


def test_physical_grid_size_matches_qcorr():
    from qcorr.verify import physical_grid

    for n in (2, 3, 5, 9):
        assert ref.physical_grid_size(n) == len(physical_grid(n))


def test_inverse_check_rejects_one_perturbed_value():
    from qcorr import ChannelKind, CorrelationVector, Norm, RelationCase
    from qcorr.relations import hs_discord_from_entanglement

    r0 = ref.REFERENCE_STATE
    p = ref.death_time("pd", r0) * np.arange(64) / 64
    r = ref.evolve("pd", r0, p)
    case = RelationCase(ChannelKind.PHASE_DAMPING, Norm.HS, CorrelationVector(*r0))
    got = [hs_discord_from_entanglement(e, case, "D%d" % (k + 1))
           for e, k in zip(ref.hs_entanglement(r), ref.hs_axis_distances(r).argmin(axis=1))]
    assert ref.check_inverse(got, "pd", r0, p, "hs") == 64
    got[10] += 1e-8
    with pytest.raises(ref.CheckFailed):
        ref.check_inverse(got, "pd", r0, p, "hs")


def test_tracer_records_inside_ops_only_and_uninstalls(tmp_path):
    import qcorr.dynamics as dyn
    from tracing import Tracer

    before = (dyn.evolved_vector, np.linalg.eigvalsh, cli.main)
    argv = ["simulate", "--channel", "pd", "--state", _state(ref.REFERENCE_STATE),
            "--samples", "11", "--out", str(tmp_path / "t.csv")]
    tracer = Tracer()
    tracer.install()
    try:
        assert _run(argv) == 0
        assert not tracer.calls
        tracer.op_id = 1
        assert _run(argv) == 0
        tracer.op_id = None
    finally:
        tracer.uninstall()
    assert (dyn.evolved_vector, np.linalg.eigvalsh, cli.main) == before
    assert tracer.calls["cli.main"] == 1 and tracer.calls["dynamics.run_trajectory"] == 1
    assert tracer.calls["channels.evolved_vector"] >= 11
    assert {s[5] for s in tracer.spans} == {1}
    main_total = tracer.incl["cli.main"]
    assert abs(sum(tracer.self_time.values()) - main_total) < 1e-6 * max(1.0, main_total) + 1e-6


def test_benchmark_json_names_the_metrics_run_py_prints():
    import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS + run.EXTRA_WORKLOADS) == set(run.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
