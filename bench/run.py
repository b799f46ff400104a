"""qcorr benchmark: two workloads, end-to-end metrics and a traced per-layer run.

Run one workload (the form BENCHMARK.json gives):

    python3 bench/run.py --workload simulate-sweep --seed 1 --seconds 57 --trace 0

or both, each in a fresh process of its own, with a summary table:

    python3 bench/run.py --workload all --seed 1 --seconds 57 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 gives the end-to-end metrics,
--trace 1 the per-layer metrics of a run with every public qcorr function
wrapped.  See bench/README.md for the workloads and what each metric should
move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("verify-oracles", "simulate-sweep")
# Runnable by name but not part of BENCHMARK.json or --workload all.  Each
# workload there is run 22 times within a fixed time budget, so fewer workloads
# get longer runs, and runs shorter than about a minute were too noisy on a
# small shared host.
EXTRA_WORKLOADS = ("relation-inverse", "simulate-long")
SETUP_REPS = 3  # repeats of input generation + warm-up op; setup_s takes their median
START_REPS = 5  # fresh interpreters timed for the start-up part of setup_s
VERIFY_SEEDS = 12  # distinct verify seeds per round; op cost varies by up to 25% between seeds

# Load is one thread: qcorr's default single-threaded verification, and an
# OpenBLAS that starts no worker threads to compete for the host's few cores.
os.environ["QCORR_THREADS"] = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"


_PATHS = [str(ROOT / "src"), str(BENCH_DIR)]


def _import_qcorr():
    """Import numpy, qcorr and the reference code; exit 2 when the source tree is missing."""
    if not (ROOT / "src" / "qcorr" / "__init__.py").is_file():
        print("bench: no qcorr source tree at src/qcorr; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = _PATHS
    global np, qcli, qrel, ref, ChannelKind, CorrelationVector, Norm, RelationCase
    import numpy as np
    import qcorr.cli as qcli
    import qcorr.relations as qrel
    from qcorr import ChannelKind, CorrelationVector, Norm, RelationCase

    import reference as ref


# ------------------------------------------------------------------ ops


class Op:
    """One timed call into qcorr.

    run() does the call and returns what check() needs; check() compares that
    with the reference and returns the number of items the op finished.
    """

    samples = 0  # trajectory samples the op computes, for per-sample layer metrics

    def run(self):
        raise NotImplementedError

    def check(self, out) -> int:
        raise NotImplementedError


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return qcli.main(argv)


def _state_arg(r) -> str:
    return ",".join("%.17g" % v for v in r)


class CliOp(Op):
    def __init__(self, workdir: Path, index: int, command: str, channel: str, r0, samples: int, norm=None):
        self.path = workdir / ("op%04d.csv" % index)
        self.command, self.channel, self.r0, self.norm = command, channel, r0, norm
        self.samples = samples
        self.argv = [command, "--channel", channel, "--state", _state_arg(r0),
                     "--samples", str(samples), "--out", str(self.path)]
        if norm is not None:
            self.argv += ["--norm", norm]

    def run(self):
        return _cli(self.argv)

    def check(self, rc) -> int:
        if rc != 0:
            raise ref.CheckFailed("%s exited %d" % (" ".join(self.argv), rc))
        text = self.path.read_text()
        if self.command == "simulate":
            events = self.path.with_name(self.path.stem + ".events.json").read_text()
            return ref.check_simulate(text, events, self.channel, self.r0, 1.0, self.samples)
        if self.command == "relate":
            return ref.check_relate(text, self.channel, self.r0, self.norm, 1.0, self.samples)
        return ref.check_curve(text, self.channel, self.r0, 1.0, self.samples)


class VerifyOp(Op):
    def __init__(self, workdir: Path, index: int, seed: int, sizes: dict, reports: dict):
        self.path = workdir / ("verify%04d.json" % index)
        self.seed, self.sizes, self.reports = seed, sizes, reports
        self.argv = ["verify", "--seed", str(seed), "--grid", str(sizes["grid"]),
                     "--xstates", str(sizes["xstates"]), "--wootters", str(sizes["wootters"]),
                     "--out", str(self.path)]

    def run(self):
        return _cli(self.argv)

    def check(self, rc) -> int:
        text = self.path.read_text() if rc == 0 else ""
        n = ref.check_verify(rc, text, self.seed, self.sizes["grid"], self.sizes["xstates"], self.sizes["wootters"])
        first = self.reports.setdefault(self.seed, text)
        if first != text:
            raise ref.CheckFailed("verify --seed %d gave a report that differs from its first run" % self.seed)
        return n


class InverseOp(Op):
    """Both relation inverses at every point of a p-grid on [0, p_SD) for one case."""

    def __init__(self, channel: str, r0, points: int):
        self.channel, self.r0 = channel, r0
        self.p = ref.death_time(channel, r0) * np.arange(points) / points
        r = ref.evolve(channel, r0, self.p)
        kind = ChannelKind(channel)
        cv = CorrelationVector(*r0)
        self.hs_case = RelationCase(kind, Norm.HS, cv)
        self.tr_case = RelationCase(kind, Norm.TRACE, cv)
        self.hs_in = list(zip(ref.hs_entanglement(r).tolist(),
                              ["D%d" % (k + 1) for k in ref.hs_axis_distances(r).argmin(axis=1)]))
        self.tr_in = list(zip(ref.concurrence(r).tolist(),
                              ["r%d" % (k + 1) for k in np.argsort(np.abs(r), axis=1, kind="stable")[:, 1]]))

    def run(self):
        hs = [qrel.hs_discord_from_entanglement(e, self.hs_case, b) for e, b in self.hs_in]
        tr = [qrel.trace_discord_from_concurrence(c, self.tr_case, b) for c, b in self.tr_in]
        return hs, tr

    def check(self, out) -> int:
        hs, tr = out
        return (ref.check_inverse(hs, self.channel, self.r0, self.p, "hs")
                + ref.check_inverse(tr, self.channel, self.r0, self.p, "trace"))


# ------------------------------------------------------------------ workloads
#
# Each workload turns the benchmark seed into its inputs and one round of ops.
# Every run repeats whole rounds of the same ops.


def verify_oracles(rng, workdir):
    """Reduced-size `qcorr verify` runs over a list of seeds; every check is kept."""
    sizes = {"grid": 3, "xstates": 6, "wootters": 300}
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=VERIFY_SEEDS)]
    reports: dict = {}
    return [VerifyOp(workdir, k, s, sizes, reports) for k, s in enumerate(seeds)]


def simulate_sweep(rng, workdir):
    """simulate, relate hs, relate trace and curve at 1001 samples on every channel."""
    states = ref.window_stratified_states(rng, 4) + [ref.REFERENCE_STATE]
    ops = []
    for r0 in states:
        for channel in ref.CHANNELS:
            for command, norm in (("simulate", None), ("relate", "hs"), ("relate", "trace"), ("curve", None)):
                ops.append(CliOp(workdir, len(ops), command, channel, r0, 1001, norm))
    return ops


def simulate_long(rng, workdir):
    """simulate --samples 100001 once per channel, each on its own seeded state."""
    states = ref.entangled_states(rng, len(ref.CHANNELS))
    return [CliOp(workdir, k, "simulate", channel, r0, 100001)
            for k, (channel, r0) in enumerate(zip(ref.CHANNELS, states))]


def relation_inverse(rng, workdir):
    """hs_discord_from_entanglement and trace_discord_from_concurrence on 256-point p-grids."""
    states = ref.entangled_states(rng, 4)
    return [InverseOp(channel, r0, 256) for r0 in states for channel in ref.CHANNELS]


BUILDERS = {
    "verify-oracles": verify_oracles,
    "simulate-sweep": simulate_sweep,
    "simulate-long": simulate_long,
    "relation-inverse": relation_inverse,
}

# ------------------------------------------------------------------ metrics

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "cli.self_ms": "ms/op",
    "dynamics.run_trajectory_ms": "ms/op",
    "dynamics.us_per_sample": "us/sample",
    "dynamics.d_vs_e_curve_ms": "ms/op",
    "channels.evolved_vector_ms": "ms/op",
    "channels.evolved_vector_calls_per_sample": "calls/sample",
    "states.validate_ms": "ms/op",
    "states.validations_per_sample": "calls/sample",
    "quantifiers.closed_form_ms": "ms/op",
    "quantifiers.wootters_ms": "ms/op",
    "relations.critical_times_calls": "calls/op",
    "relations.critical_times_hit_ratio": "ratio",
    "relations.is_extrapolated_piece_ms": "ms/op",
    "oracles.xfamily_ms": "ms/op",
    "oracles.classical_trace_ms": "ms/op",
    "oracles.classical_hs_ms": "ms/op",
    "oracles.evaluations": "count/op",
    "oracles.eig_matrices": "count/op",
    "oracles.eig_matrices_per_call": "count/call",
    "sampling.ms": "ms/op",
    "sampling.draws_per_accept": "ratio",
    "verify.self_ms": "ms/op",
    "verify.report_to_json_ms": "ms/op",
    "trace.items_per_s": "1/s",
}


INVERSES = ("relations.hs_discord_from_entanglement", "relations.trace_discord_from_concurrence")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tr, ops: int, samples: int, hits: int, misses: int, items: int, phase: float) -> dict:
    incl, calls = tr.incl, tr.calls

    def ms(*names):
        return _ratio(sum(incl[n] for n in names) * 1e3, ops)

    validations = ("states.CorrelationVector.validate", "states.XState.validate")
    return {
        "cli.self_ms": _ratio(tr.layer_self().get("cli", 0.0) * 1e3, ops),
        "dynamics.run_trajectory_ms": ms("dynamics.run_trajectory"),
        "dynamics.us_per_sample": _ratio(incl["dynamics.run_trajectory"] * 1e6, samples),
        "dynamics.d_vs_e_curve_ms": ms("dynamics.d_vs_e_curve"),
        "channels.evolved_vector_ms": ms("channels.evolved_vector"),
        "channels.evolved_vector_calls_per_sample": _ratio(calls["channels.evolved_vector"], samples),
        "states.validate_ms": ms(*validations),
        "states.validations_per_sample": _ratio(sum(calls[n] for n in validations), samples),
        "quantifiers.closed_form_ms": ms("quantifiers.hs_discord", "quantifiers.hs_entanglement",
                                         "quantifiers.trace_discord", "quantifiers.concurrence_x"),
        "quantifiers.wootters_ms": ms("quantifiers.wootters_concurrence"),
        "relations.critical_times_calls": _ratio(calls["relations.critical_times"], ops),
        "relations.critical_times_hit_ratio": _ratio(hits, hits + misses),
        "relations.is_extrapolated_piece_ms": ms("relations.is_extrapolated_piece"),
        "oracles.xfamily_ms": ms("oracles.closest_separable_trace_xfamily"),
        "oracles.classical_trace_ms": ms("oracles.closest_classical.trace"),
        "oracles.classical_hs_ms": ms("oracles.closest_classical.hs"),
        "oracles.evaluations": _ratio(tr.counters["oracle_evaluations"], ops),
        "oracles.eig_matrices": _ratio(tr.counters["eig_matrices"], ops),
        "oracles.eig_matrices_per_call": _ratio(tr.counters["eig_matrices"], tr.counters["eig_calls"]),
        "sampling.ms": _ratio(tr.layer_incl.get("sampling", 0.0) * 1e3, ops),
        "sampling.draws_per_accept": _ratio(tr.counters["entangled_draws"],
                                            calls["sampling.random_entangled_xstate"]),
        "verify.self_ms": _ratio(tr.self_time.get("verify.run_verification", 0.0) * 1e3, ops),
        "verify.report_to_json_ms": ms("verify.report_to_json"),
        "trace.items_per_s": _ratio(items, phase),
    }


def environment() -> dict:
    import numpy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref_file = ROOT / ".git" / text[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else text[5:]
        else:
            sha = text
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "QCORR_THREADS": os.environ["QCORR_THREADS"],
    }


# ------------------------------------------------------------------ one workload


def _start_seconds() -> float:
    """Median wall time of a fresh interpreter that starts, imports what a run imports and exits."""
    code = "import sys; sys.path[:0] = %r; import numpy, qcorr.cli, reference" % _PATHS
    times = []
    for _ in range(START_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_qcorr()
    print("env " + json.dumps(environment(), sort_keys=True))

    workdir = OUT_DIR / ("%s-%d" % (name, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    cache = qrel.critical_times  # the lru_cache object, kept before any wrapping
    correct = True

    def check(op, out) -> int:
        nonlocal correct
        try:
            return op.check(out)
        except (ref.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            correct = False
            print("CHECK FAILED %s: %s" % (name, exc), file=sys.stderr)
            return 0

    try:
        setup = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            ops = BUILDERS[name](np.random.default_rng(seed), workdir)
            cache.cache_clear()
            warm = ops[0].run()
            setup.append(time.perf_counter() - t)
        check(ops[0], warm)

        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()

        latencies, attempted, failed, items, samples = [], 0, 0, 0, 0
        hits = misses = 0
        phase = 0.0
        while True:
            outputs = []
            t_round = time.perf_counter()
            for op in ops:
                attempted += 1
                cache.cache_clear()  # each command starts cold, as a fresh CLI process would
                if tracer:
                    tracer.op_id = attempted
                t = time.perf_counter()
                try:
                    outputs.append((op, op.run()))
                except Exception as exc:  # a crashing op is counted, not fatal
                    failed += 1
                    print("OP FAILED %s: %r" % (name, exc), file=sys.stderr)
                latencies.append(time.perf_counter() - t)
                if tracer:
                    tracer.op_id = None
                info = cache.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
            round_s = time.perf_counter() - t_round
            phase += round_s
            for op, out in outputs:
                items += check(op, out)
                samples += op.samples
            if phase + round_s > seconds:  # the next round would overrun the run length
                break

        if tracer:
            tracer.uninstall()
            metrics = per_layer_metrics(tracer, attempted, samples, hits, misses, items, phase)
            units = PER_LAYER_UNITS
            shares = {k: round(v / phase, 4) for k, v in sorted(tracer.layer_self().items())}
            shares["harness"] = round(1.0 - tracer.top_time / phase, 4)
            print("layer self-time share of the timed phase: " + json.dumps(shares))
            inverse_calls = sum(tracer.calls[n] for n in INVERSES)
            if inverse_calls:  # only relation-inverse calls them; not a BENCHMARK.json metric
                print("relations.inverse_us_per_point %.4f us/point"
                      % (sum(tracer.incl[n] for n in INVERSES) * 1e6 / inverse_calls))
            spans = OUT_DIR / ("spans-%s-seed%d.jsonl" % (name, seed))
            tracer.write_spans(spans)
            print("spans: %d written to %s, %d beyond the cap counted only"
                  % (len(tracer.spans), spans.relative_to(ROOT), tracer.dropped))
        else:
            metrics = {
                "setup_s": _start_seconds() + statistics.median(setup),
                "items_per_s": items / phase,
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            if len(latencies) >= 200:
                p95 = statistics.quantiles(latencies, n=20)[-1] * 1e3
                print("op_p95_ms %.4f over %d ops" % (p95, len(latencies)))
        print("timed phase: %.3f s, %d ops, %d items" % (phase, attempted, items))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


# ------------------------------------------------------------------ all workloads


def run_all(seed: int, seconds: float, trace: int) -> int:
    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print("[%s] %s" % (name, line))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print("%s: no result (exit %d)" % (name, proc.returncode))
            status = 1
            continue
        status = status or proc.returncode
    print()
    for name, res in results.items():
        print("%-17s correct=%s attempted=%d failed=%d" % (name, res["correct"], res["attempted"], res["failed"]))
        for metric, m in res["metrics"].items():
            print("    %-42s %14.6g %s" % (metric, m["value"], m["unit"]))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / ("results-seed%d-trace%d.json" % (seed, trace))
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print("results written to %s" % out.relative_to(ROOT))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
