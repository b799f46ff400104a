"""Command-line interface: trajectory simulation, relation curves, oracle
verification and curve export.

Exit codes: 0 success, 2 configuration error or any other qcorr error,
3 non-physical state, 4 empty discord-entanglement window, 5 verification
tolerance exceeded.  Every failure prints exactly one diagnostic line on
stderr, led by the error's type name; errors.py holds the code table.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .channels import parse_channel_spec
from .dynamics import SUDDEN_CHANGE, d_vs_e_curve, run_trajectory
from .errors import ConfigError, OutOfRange, QcorrError, VerifyFailure
from .quantifiers import Norm
from .relations import RelationCase, extrapolation_start
from .states import CorrelationVector, XState
from .verify import report_to_json, run_verification


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept "-0.7,-0.7,-0.7" as an option value, not an option name
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):  # single-line diagnostics instead of usage dumps
        raise ConfigError(message)


def _fmt(x: float) -> str:
    return "%.17g" % x


def _parse_state(text: str) -> CorrelationVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("state: expected three comma-separated numbers, got %r" % text)
    try:
        vals = [float(v) for v in parts]
    except ValueError:
        raise ConfigError("state: %r is not numeric" % text) from None
    return CorrelationVector(*vals)


def _load_xstate(path: str) -> XState:
    try:
        obj = json.loads(Path(path).read_text())
        return XState.from_json(obj)
    except FileNotFoundError:
        raise ConfigError("xstate: file %r not found" % path) from None
    except (KeyError, IndexError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError("xstate: malformed file %r (%s)" % (path, exc)) from None


def _xstate_to_bd(x: XState) -> CorrelationVector:
    """Convert a Bell-diagonal-form X state to its correlation vector."""
    for name, lhs, rhs in (("a/d", x.a, x.d), ("b/c", x.b, x.c)):
        if abs(lhs - rhs) > 1e-9:
            raise ConfigError("xstate: populations %s differ; state is not Bell-diagonal" % name)
    for name, val in (("e", x.e), ("f", x.f)):
        if abs(val.imag) > 1e-9:
            raise ConfigError("xstate: coherence %s is not real; state is not Bell-diagonal" % name)
    return CorrelationVector(
        2.0 * (x.e.real + x.f.real),
        2.0 * (x.f.real - x.e.real),
        2.0 * (x.a + x.d) - 1.0,
    )


def _initial_state(args) -> CorrelationVector:
    if args.state is not None and args.xstate is not None:
        raise ConfigError("state/xstate: give exactly one of --state and --xstate")
    if args.state is not None:
        return _parse_state(args.state)
    if args.xstate is not None:
        return _xstate_to_bd(_load_xstate(args.xstate))
    raise ConfigError("state: one of --state or --xstate is required")


def _write_events(traj, out_csv: str):
    events = [
        {
            "kind": e.kind,
            "norm": e.norm.value,
            "p_detected": e.p_detected,
            "p_analytic": e.p_analytic,
        }
        for e in traj.event_records
    ]
    doc = {"events": events}
    if traj.unmatched:  # only when non-empty, so that sidecars without misses keep their bytes
        doc["unmatched"] = [
            {"kind": e.kind, "norm": e.norm.value, "p_analytic": e.p_analytic} for e in traj.unmatched
        ]
    path = Path(out_csv)
    sidecar = path.with_name(path.stem + ".events.json")
    sidecar.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return sidecar


def _fmt_or_none(x) -> str:
    return "none" if x is None else _fmt(x)


def _print_events(traj):
    """Detected events, then the analytic sudden changes that none matched."""
    for e in traj.event_records + traj.unmatched:
        print("%s norm=%s p_detected=%s p_analytic=%s"
              % (e.kind, e.norm.value, _fmt_or_none(e.p_detected), _fmt_or_none(e.p_analytic)))


def _write_columns(path: str, header: str, columns) -> None:
    """CSV with one row per index of the columns: floats as %.17g, labels verbatim."""
    cells = []
    for c in columns:  # formatted lazily, one row at a time
        cells.append(c.tolist() if c.dtype.kind == "U" else map(_fmt, c.tolist()))
    rows = map(",".join, zip(*cells))
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def cmd_simulate(args) -> int:
    kind = parse_channel_spec(args.channel)
    r0 = _initial_state(args)
    traj = run_trajectory(kind, r0, p_max=args.pmax, n_samples=args.samples)
    _write_columns(
        args.out,
        "p,r1,r2,r3,E_hs,D_hs,C,D_tr,branch_hs,branch_tr",
        [traj.p, *traj.r.T, traj.e_hs, traj.d_hs, traj.concurrence, traj.d_tr,
         traj.branch_hs, traj.branch_tr],
    )
    _write_events(traj, args.out)
    _print_events(traj)
    return 0


def cmd_relate(args) -> int:
    kind = parse_channel_spec(args.channel)
    norm = Norm(args.norm)
    r0 = _initial_state(args)
    traj = run_trajectory(kind, r0, p_max=args.pmax, n_samples=args.samples)
    ent, disc, branch = d_vs_e_curve(traj, norm)
    start = extrapolation_start(RelationCase(kind, norm, r0))
    extrapolated = np.where(traj.p[: len(ent)] > start, "true", "false")
    _write_columns(args.out, "E,D,branch,extrapolated", [ent, disc, branch, extrapolated])
    for e in traj.event_records:
        if e.kind == SUDDEN_CHANGE and e.norm is norm:
            print("kink p=%s" % _fmt(e.p_detected))
    return 0


def cmd_curve(args) -> int:
    kind = parse_channel_spec(args.channel)
    r0 = _initial_state(args)
    traj = run_trajectory(kind, r0, p_max=args.pmax, n_samples=args.samples)
    hs = d_vs_e_curve(traj, Norm.HS)
    tr = d_vs_e_curve(traj, Norm.TRACE)
    p = traj.p[: len(hs[0])]
    _write_columns(args.out, "p,E_hs,D_hs,branch_hs,C,D_tr,branch_tr", [p, *hs, *tr])
    _print_events(traj)
    return 0


def cmd_verify(args) -> int:
    if args.out is not None and not Path(args.out).parent.is_dir():
        raise ConfigError("out: directory of %r does not exist" % args.out)
    extra = _load_xstate(args.xstate) if args.xstate is not None else None
    report = run_verification(
        seed=args.seed,
        grid=args.grid,
        n_xstates=args.xstates,
        n_wootters=args.wootters,
        mutate=args.mutate,
        extra_xstate=extra,
    )
    text = report_to_json(report)
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if not report["all_pass"]:
        worst = next(c for c in report["checks"] if not c["pass"])
        raise VerifyFailure(
            "%s max_abs_deviation=%s tolerance=%s worst_case_state=%s"
            % (
                worst["measure"],
                _fmt(worst["max_abs_deviation"]),
                _fmt(worst["tolerance"]),
                json.dumps(worst["worst_case_state"], sort_keys=True),
            )
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qcorr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--channel", required=True, help="pd | bf | bpf | pf | depol")
        p.add_argument("--state", help="correlation vector r1,r2,r3")
        p.add_argument("--xstate", help="path to an X-state JSON file")
        p.add_argument("--pmax", type=float, default=1.0)
        p.add_argument("--samples", type=int, default=1001)
        p.add_argument("--out", required=True, help="output CSV path")

    p_sim = sub.add_parser("simulate", help="trajectory CSV plus detected events")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rel = sub.add_parser("relate", help="(E, D) pairs for one norm")
    add_common(p_rel)
    p_rel.add_argument("--norm", required=True, choices=["hs", "trace"])
    p_rel.set_defaults(func=cmd_relate)

    p_cur = sub.add_parser("curve", help="discord-vs-entanglement data, both norms")
    add_common(p_cur)
    p_cur.set_defaults(func=cmd_curve)

    p_ver = sub.add_parser("verify", help="oracle-vs-closed-form verification report")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--grid", type=int, default=9)
    p_ver.add_argument("--xstates", type=int, default=1000)
    p_ver.add_argument("--wootters", type=int, default=10000)
    p_ver.add_argument("--xstate", help="extra X-state JSON for the trace-distance identity check")
    p_ver.add_argument("--out", help="report JSON path (default: stdout)")
    p_ver.add_argument("--mutate", action="store_true", help=argparse.SUPPRESS)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (QcorrError, OSError) as exc:  # OSError: unreadable or unwritable path
        name = "ConfigError" if isinstance(exc, (OutOfRange, OSError)) else type(exc).__name__
        print("%s: %s" % (name, exc), file=sys.stderr)
        return getattr(exc, "exit_code", ConfigError.exit_code)


def entry():  # console-script wrapper
    sys.exit(main())
