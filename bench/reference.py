"""Reference computations and output checks for the benchmark.

Everything here is written apart from qcorr, with numpy only: the channel
decay factors, the Bell eigenvalues, the concurrence max(0, 2 lambda_max - 1),
the Hilbert-Schmidt and trace discord, E_hs, the sudden-change and
sudden-death equations, and a private copy of the verify tolerances.  A check
raises CheckFailed with a one-line reason; it never compares against stored
output of an earlier run.
"""

from __future__ import annotations

import json
import math

import numpy as np

CHANNELS = ("pd", "bf", "bpf", "pf", "depol")
REFERENCE_STATE = (0.65, 0.59, -0.38)

# Axis that each dephasing-type channel leaves untouched (0-based).
PRESERVED = {"pd": 2, "bf": 0, "bpf": 1, "pf": 2, "depol": None}

VALUE_TOL = 1e-12      # CSV values against the reference
EVENT_EQ_TOL = 1e-8    # defining equation at a detected event (bisection to 1e-10 in p)
ANALYTIC_EQ_TOL = 1e-9  # defining equation at the analytic time
MATCH_TOL = 1e-6       # |p_detected - p_analytic|
INVERSE_TOL = 1e-9     # reconstructed discord against the reference
TIE_TOL = 1e-12        # competing values closer than this may carry either label

# The benchmark's own copy of qcorr.verify.TOLERANCES: a report whose
# tolerances differ from these, or whose deviations exceed them, is rejected.
VERIFY_TOLERANCES = {
    "hs_discord_vs_closest_classical": 1e-6,
    "hs_entanglement_vs_closest_separable": 1e-8,
    "trace_discord_vs_closest_classical": 1e-4,
    "xfamily_oracle_vs_concurrence": 1e-4,
    "clamped_minimizer_vs_concurrence": 1e-12,
    "wootters_vs_concurrence_x": 1e-10,
}
# Checks whose oracle makes exactly one evaluation per state.
_ONE_EVAL_PER_STATE = {
    "hs_entanglement_vs_closest_separable",
    "clamped_minimizer_vs_concurrence",
    "wootters_vs_concurrence_x",
}
_STATES_OF_CHECK = {
    "hs_discord_vs_closest_classical": "grid",
    "hs_entanglement_vs_closest_separable": "grid",
    "trace_discord_vs_closest_classical": "grid",
    "xfamily_oracle_vs_concurrence": "xstates",
    "clamped_minimizer_vs_concurrence": "xstates",
    "wootters_vs_concurrence_x": "wootters",
}


class CheckFailed(Exception):
    """An output of qcorr disagrees with the reference."""


# ---------------------------------------------------------------- physics


def decay(channel: str, p) -> np.ndarray:
    """Per-axis factors (n, 3) of the correlation vector under the symmetric channel."""
    p = np.asarray(p, dtype=float)
    g = (1.0 - p) ** 2
    one = np.ones_like(p)
    if channel == "pd":
        cols = (g, g, one)
    elif channel == "bf":
        cols = (one, g, g)
    elif channel == "bpf":
        cols = (g, one, g)
    elif channel == "pf":
        h = (1.0 - 2.0 * p) ** 2
        cols = (h, h, one)
    elif channel == "depol":
        cols = (g, g, g)
    else:
        raise ValueError("unknown channel %r" % channel)
    return np.stack(cols, axis=-1)


def evolve(channel: str, r0, p) -> np.ndarray:
    return np.asarray(r0, dtype=float) * decay(channel, p)


def bell_eigenvalues(r) -> np.ndarray:
    r = np.atleast_2d(np.asarray(r, dtype=float))
    r1, r2, r3 = r[:, 0], r[:, 1], r[:, 2]
    return np.stack(
        (1 + r1 - r2 + r3, 1 - r1 + r2 + r3, 1 + r1 + r2 - r3, 1 - r1 - r2 - r3), axis=-1
    ) / 4.0


def concurrence(r) -> np.ndarray:
    """Concurrence of Bell-diagonal states: max(0, 2 lambda_max - 1)."""
    return np.maximum(0.0, 2.0 * bell_eigenvalues(r).max(axis=1) - 1.0)


def hs_axis_distances(r) -> np.ndarray:
    """Squared distances (n, 3) to the three Cartesian axes."""
    sq = np.atleast_2d(np.asarray(r, dtype=float)) ** 2
    return sq.sum(axis=1, keepdims=True) - sq


def hs_discord(r) -> np.ndarray:
    return hs_axis_distances(r).min(axis=1)


def hs_entanglement(r) -> np.ndarray:
    s = np.abs(np.atleast_2d(np.asarray(r, dtype=float))).sum(axis=1)
    return np.where(s > 1.0, (s - 1.0) ** 2 / 3.0, 0.0)


def trace_discord(r) -> np.ndarray:
    return np.median(np.abs(np.atleast_2d(np.asarray(r, dtype=float))), axis=1)


def inverse_factor(channel: str, g: float) -> float:
    """First p at which the decaying factor of the channel equals g."""
    root = math.sqrt(g)
    return (1.0 - root) / 2.0 if channel == "pf" else 1.0 - root


def death_time(channel: str, r0) -> float:
    """p at which sum |r_i(p)| reaches 1; r0 must be entangled."""
    s = np.abs(np.asarray(r0, dtype=float))
    keep = PRESERVED[channel]
    if keep is None:
        return inverse_factor(channel, 1.0 / s.sum())
    return inverse_factor(channel, (1.0 - s[keep]) / (s.sum() - s[keep]))


def extrapolated_from(channel: str, r0) -> float | None:
    """Start of the post-sudden-change trace piece that qcorr flags as extrapolated.

    Only a dephasing-type channel whose preserved modulus lies strictly
    between the two decaying ones has it; it starts where the larger decaying
    modulus falls to the preserved one.
    """
    keep = PRESERVED[channel]
    if keep is None:
        return None
    s = np.abs(np.asarray(r0, dtype=float))
    dec = [s[k] for k in range(3) if k != keep]
    if not min(dec) < s[keep] < max(dec):
        return None
    return inverse_factor(channel, s[keep] / max(dec))


def entangled_states(rng: np.random.Generator, n: int, gap: float = 0.02) -> list[tuple]:
    """Entangled Bell-diagonal vectors, uniform over the tetrahedron, whose
    moduli differ pairwise (and from 0) by at least gap and whose margin
    sum|r_i| - 1 is at least gap."""
    out = []
    while len(out) < n:
        w = rng.dirichlet(np.ones(4))
        r = (w[0] - w[1] + w[2] - w[3], -w[0] + w[1] + w[2] - w[3], w[0] + w[1] - w[2] - w[3])
        s = sorted(abs(v) for v in r)
        if sum(s) < 1.0 + gap or s[0] < gap or s[1] - s[0] < gap or s[2] - s[1] < gap:
            continue
        out.append(tuple(float(v) for v in r))
    return out


def window_stratified_states(rng: np.random.Generator, n: int, pool_per_state: int = 64) -> list[tuple]:
    """n entangled states at fixed quantiles of their summed sudden-death times.

    relate and curve write one row per grid point before sudden death, so a
    sweep round's rows follow the death times of its states.  Drawing a pool
    and keeping the states at the quantiles (2j + 1) / 2n holds the rows of a
    round within about 2% from seed to seed, where n plain draws vary by 17%.
    """
    pool = entangled_states(rng, n * pool_per_state)
    pool.sort(key=lambda r: sum(death_time(ch, r) for ch in CHANNELS))
    return [pool[(2 * j + 1) * len(pool) // (2 * n)] for j in range(n)]


def physical_grid_size(n: int) -> int:
    """Number of physical points of the n x n x n lattice on [-1, 1]^3."""
    axis = np.linspace(-1.0, 1.0, n)
    r = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    return int((bell_eigenvalues(r).min(axis=1) >= -1e-12).sum())


# ---------------------------------------------------------------- checks


def _fail(what: str, *args):
    raise CheckFailed(what % args if args else what)


def _close(name: str, got: np.ndarray, want: np.ndarray, tol: float = VALUE_TOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        _fail("%s: %d values, expected %d", name, got.size, want.size)
    if not np.all(np.isfinite(got)):
        _fail("%s: non-finite value", name)
    err = np.abs(got - want)
    k = int(np.argmax(err))
    if err[k] > tol:
        _fail("%s: row %d is %.17g, reference %.17g", name, k, got[k], want[k])


def _label_index(name: str, col: np.ndarray, prefix: str) -> np.ndarray:
    """0-based axis of each label "<prefix>1".."<prefix>3"; anything else fails."""
    names = np.array([prefix + "1", prefix + "2", prefix + "3"])
    k = np.minimum(np.searchsorted(names, col), 2)
    bad = np.flatnonzero(names[k] != col)
    if bad.size:
        _fail("%s: row %d has label %s", name, bad[0], col[bad[0]])
    return k


def _hs_branch(name: str, col, r: np.ndarray):
    """A branch label is right when its axis distance is within TIE_TOL of the minimum."""
    d = hs_axis_distances(r)
    k = _label_index(name, col, "D")
    bad = np.flatnonzero(d[np.arange(len(k)), k] > d.min(axis=1) + TIE_TOL)
    if bad.size:
        _fail("%s: row %d is %s, not the closest axis", name, bad[0], col[bad[0]])


def _trace_piece(name: str, col, r: np.ndarray):
    """A piece label is right when its modulus is within TIE_TOL of the median modulus."""
    a = np.abs(r)
    k = _label_index(name, col, "r")
    bad = np.flatnonzero(np.abs(a[np.arange(len(k)), k] - np.median(a, axis=1)) > TIE_TOL)
    if bad.size:
        _fail("%s: row %d is %s, not the middle modulus", name, bad[0], col[bad[0]])


def _table(text: str, header: str, labels: tuple[int, ...]) -> list:
    """Columns of a CSV: float arrays, and string arrays at the label positions."""
    head, _, body = text.partition("\n")
    if head != header:
        _fail("csv header %r, expected %r", head, header)
    width = header.count(",") + 1
    rows = body.count("\n")
    if rows == 0 or not body.endswith("\n") or body.count(",") != rows * (width - 1):
        _fail("csv body is not %d rows of %d fields", rows, width)
    numeric = [k for k in range(width) if k not in labels]
    lines = body.splitlines()
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=numeric, ndmin=2)
    except ValueError as exc:
        _fail("csv holds a non-numeric value (%s)", exc)
    names = np.loadtxt(lines, delimiter=",", usecols=labels, dtype="U8", ndmin=2)
    cols = [None] * width
    for j, k in enumerate(numeric):
        cols[k] = values[:, j]
    for j, k in enumerate(labels):
        cols[k] = names[:, j]
    return cols


def _window(p: np.ndarray, rows: int, channel: str, r0):
    """The curve window ends at the last grid point before sudden death."""
    p_sd = death_time(channel, r0)
    if rows < 1 or p[rows - 1] > p_sd + 1e-9 or (rows < len(p) and p[rows] < p_sd - 1e-9):
        _fail("window of %d rows does not end at sudden death p=%.12g", rows, p_sd)
    return p[:rows]


def check_simulate(text: str, events_text: str, channel: str, r0, p_max: float, n: int) -> int:
    """Check a `simulate` CSV and its event sidecar; return the row count."""
    cols = _table(text, "p,r1,r2,r3,E_hs,D_hs,C,D_tr,branch_hs,branch_tr", (8, 9))
    p = np.linspace(0.0, p_max, n)
    r = evolve(channel, r0, p)
    _close("p", cols[0], p)
    for k in range(3):
        _close("r%d" % (k + 1), cols[1 + k], r[:, k])
    _close("E_hs", cols[4], hs_entanglement(r))
    _close("D_hs", cols[5], hs_discord(r))
    _close("C", cols[6], concurrence(r))
    _close("D_tr", cols[7], trace_discord(r))
    _hs_branch("branch_hs", cols[8], r)
    _trace_piece("branch_tr", cols[9], r)
    check_events(json.loads(events_text)["events"], channel, r0, p_max)
    return len(cols[0])


def _hs_gap(channel, r0, p) -> float:
    d = np.sort(hs_axis_distances(evolve(channel, r0, p))[0])
    return d[1] - d[0]


def _trace_gap(channel, r0, p) -> float:
    a = np.sort(np.abs(evolve(channel, r0, p)))
    return min(a[1] - a[0], a[2] - a[1])


def _death_gap(channel, r0, p) -> float:
    return abs(np.abs(evolve(channel, r0, p)).sum() - 1.0)


def check_events(events: list[dict], channel: str, r0, p_max: float):
    """Every event satisfies its defining equation and matches its analytic time.

    A sudden change needs the two competing branch values equal: the two
    smallest axis distances (HS) or the middle modulus and a neighbour
    (trace).  Sudden death needs sum|r_i(p)| = 1, once per norm.
    """
    deaths = []
    for e in events:
        kind, norm, p_det, p_an = e["kind"], e["norm"], e["p_detected"], e["p_analytic"]
        if kind == "SuddenChangeDiscord":
            gap = _hs_gap if norm == "hs" else _trace_gap
        elif kind == "SuddenDeathEntanglement":
            gap = _death_gap
            deaths.append(norm)
        else:
            _fail("unknown event kind %r", kind)
        if norm not in ("hs", "trace"):
            _fail("unknown event norm %r", norm)
        if p_an is None or not abs(p_det - p_an) <= MATCH_TOL:
            _fail("%s/%s at p=%r has p_analytic=%r", kind, norm, p_det, p_an)
        if not 0.0 <= p_det <= p_max or gap(channel, r0, p_det) > EVENT_EQ_TOL:
            _fail("%s/%s at p=%r misses its defining equation", kind, norm, p_det)
        if gap(channel, r0, p_an) > ANALYTIC_EQ_TOL:
            _fail("%s/%s analytic p=%r misses its defining equation", kind, norm, p_an)
    if sorted(deaths) != ["hs", "trace"]:
        _fail("sudden death reported for norms %s, expected hs and trace", sorted(deaths))
    p_sd = death_time(channel, r0)
    for e in events:
        if e["kind"] == "SuddenDeathEntanglement" and abs(e["p_detected"] - p_sd) > MATCH_TOL:
            _fail("sudden death at p=%r, reference %.12g", e["p_detected"], p_sd)


def check_relate(text: str, channel: str, r0, norm: str, p_max: float, n: int) -> int:
    """Check a `relate` CSV (one norm, windowed to sudden death)."""
    cols = _table(text, "E,D,branch,extrapolated", (2, 3))
    p = _window(np.linspace(0.0, p_max, n), len(cols[0]), channel, r0)
    r = evolve(channel, r0, p)
    if norm == "hs":
        _close("E", cols[0], hs_entanglement(r))
        _close("D", cols[1], hs_discord(r))
        _hs_branch("branch", cols[2], r)
        start = None
    else:
        _close("C", cols[0], concurrence(r))
        _close("D", cols[1], trace_discord(r))
        _trace_piece("branch", cols[2], r)
        start = extrapolated_from(channel, r0)
    flags = cols[3]
    if not np.isin(flags, ("true", "false")).all():
        _fail("extrapolated flag other than true/false")
    want = np.zeros(len(p), bool) if start is None else p > start
    free = np.zeros(len(p), bool) if start is None else np.abs(p - start) <= 1e-9  # on the kink
    bad = np.flatnonzero(((flags == "true") != want) & ~free)
    if bad.size:
        _fail("extrapolated flag of row %d is %s", bad[0], flags[bad[0]])
    return len(cols[0])


def check_curve(text: str, channel: str, r0, p_max: float, n: int) -> int:
    """Check a `curve` CSV (both norms, windowed to sudden death)."""
    cols = _table(text, "p,E_hs,D_hs,branch_hs,C,D_tr,branch_tr", (3, 6))
    grid = np.linspace(0.0, p_max, n)
    p = _window(grid, len(cols[0]), channel, r0)
    r = evolve(channel, r0, p)
    _close("p", cols[0], p)
    _close("E_hs", cols[1], hs_entanglement(r))
    _close("D_hs", cols[2], hs_discord(r))
    _hs_branch("branch_hs", cols[3], r)
    _close("C", cols[4], concurrence(r))
    _close("D_tr", cols[5], trace_discord(r))
    _trace_piece("branch_tr", cols[6], r)
    return len(cols[0])


def check_verify(rc: int, text: str, seed: int, grid: int, n_xstates: int, n_wootters: int) -> int:
    """Check a `verify` report; return the number of oracle-vs-closed-form comparisons."""
    if rc != 0:
        _fail("verify exited %d", rc)
    report = json.loads(text)
    if report.get("all_pass") is not True:
        _fail("verify report has all_pass=%r", report.get("all_pass"))
    if report.get("seed") != seed or report.get("grid") != grid:
        _fail("verify report echoes seed/grid %r/%r", report.get("seed"), report.get("grid"))
    sizes = {"grid": physical_grid_size(grid), "xstates": n_xstates, "wootters": n_wootters}
    checks = report["checks"]
    if [c["measure"] for c in checks] != list(VERIFY_TOLERANCES):
        _fail("verify checks %s, expected %s", [c["measure"] for c in checks], list(VERIFY_TOLERANCES))
    comparisons = 0
    for c in checks:
        measure, tol = c["measure"], VERIFY_TOLERANCES[c["measure"]]
        if c["tolerance"] != tol:
            _fail("%s: tolerance %r, expected %r", measure, c["tolerance"], tol)
        dev = c["max_abs_deviation"]
        if c["pass"] is not True or not (math.isfinite(dev) and 0.0 <= dev <= tol):
            _fail("%s: deviation %r exceeds %r", measure, dev, tol)
        states = sizes[_STATES_OF_CHECK[measure]]
        if measure in _ONE_EVAL_PER_STATE:
            if c["evaluations"] != states:
                _fail("%s: %r evaluations for %d states", measure, c["evaluations"], states)
        elif c["evaluations"] < states:
            _fail("%s: %r evaluations for %d states", measure, c["evaluations"], states)
        comparisons += states
    return comparisons


def check_inverse(got: list[float], channel: str, r0, p: np.ndarray, norm: str) -> int:
    """Check discord values reconstructed on the p-grid by one relation inverse."""
    r = evolve(channel, r0, p)
    want = hs_discord(r) if norm == "hs" else trace_discord(r)
    _close("%s discord from %s" % (norm, "E" if norm == "hs" else "C"), got, want, INVERSE_TOL)
    return len(got)
