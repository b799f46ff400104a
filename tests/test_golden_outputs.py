"""Byte-level pins of the sweep commands' outputs.

One sha256 per channel covers simulate (CSV, event sidecar and stdout),
relate --norm hs, relate --norm trace and curve (CSV and stdout each) at the
default 1001 samples, on the reference state and on (0.9, -0.3, 0.2).  A
second set covers the degenerate orderings (0.5, 0.5, -0.5) and
(-0.7, -0.7, -0.7), whose tied moduli pin the lowest-index tie-breaking of
the branch labels.  RELATION pins both relation inverses, which the CLI
never calls, and VERIFY pins three reduced verify reports.  A refactor of the
trajectory, relation or oracle code must leave every hash unchanged.
"""

import hashlib
import json

import pytest

from conftest import REF
from qcorr.channels import ChannelKind, evolved_vector
from qcorr.cli import main
from qcorr.quantifiers import Norm, concurrence_x, hs_entanglement
from qcorr.relations import (
    RelationCase,
    hs_discord_from_entanglement,
    trace_discord_from_concurrence,
)
from qcorr.states import CorrelationVector, XState, bd_to_xstate

STATES = (REF, (0.9, -0.3, 0.2))
DEGENERATE_STATES = ((0.5, 0.5, -0.5), (-0.7, -0.7, -0.7))

COMMANDS = (
    ("simulate",),
    ("relate", "--norm", "hs"),
    ("relate", "--norm", "trace"),
    ("curve",),
)

GOLDEN = {
    "pd": "7fb42cd5064bb3113fdf28cb14f2923d306d4415783ace45f651863d8e5fda27",
    "bf": "7c440abadec7cc1669ad79f76220c5e667716fc03c2bd6cc3c1e9e8ee83ac0a8",
    "bpf": "aa08df8004902c6eec23dc4ccbd14cbdf99cda2d2876bc63fe4fafa8bda15730",
    "pf": "4f07ebe4906d0f1e90e04d4cf55808833c94500020c5d7b74f5336ab6a8ccda2",
    "depol": "354b8237ff1574ebe9e05fb6cfcec5302682ffa8de89e8d694fdc8b0fb35f5e4",
}


DEGENERATE = {
    "pd": "9b8384545c472a95ce509e5ac998d5717663a2a8956eb4497cfdf8068d65f59b",
    "bf": "b771eaf3ff82f99854c27e2c962eaf49eec601ae2be7100faba1b4375bfedcfc",
    "bpf": "fa95c638fbcadba7711aff5568bf11656f6bdb9f2789b0ca158c1a21e6baf6da",
    "pf": "50efee0be4aab1a86f68be56f44d54314b22a9394309873a051b7cc50c503fbb",
    "depol": "326d4b2a9faee2bbfc46633df877e6a4226a2084fb7564aeef48f6a0be7195e6",
}


def _channel_digest(channel, states, tmp_path, capsys) -> str:
    h = hashlib.sha256()
    for state in states:
        arg = "%.17g,%.17g,%.17g" % state
        for command in COMMANDS:
            out = tmp_path / "out.csv"
            code = main([*command, "--channel", channel, "--state", arg, "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            h.update(" ".join(command).encode() + b"\0" + arg.encode() + b"\0")
            h.update(out.read_bytes() + b"\0" + captured.out.encode() + b"\0")
            if command[0] == "simulate":
                h.update((tmp_path / "out.events.json").read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("channel", sorted(GOLDEN))
def test_golden_outputs(channel, tmp_path, capsys):
    assert _channel_digest(channel, STATES, tmp_path, capsys) == GOLDEN[channel]


@pytest.mark.parametrize("channel", sorted(DEGENERATE))
def test_golden_outputs_degenerate(channel, tmp_path, capsys):
    assert _channel_digest(channel, DEGENERATE_STATES, tmp_path, capsys) == DEGENERATE[channel]


# states x 5 channels x p x every label (and none) of both inverses, plus E
# and C inputs that no p reaches.  The permuted reference states move its
# preserved axis to the bit-flip and bit-phase-flip axes; (1, 1, -1) is a Bell
# vertex, and the last three are degenerate or separable.
RELATION_STATES = (
    REF,
    (-0.38, 0.65, 0.59),
    (0.65, -0.38, 0.59),
    (0.9, -0.3, 0.2),
    (-0.3, 0.8, 0.45),
    (1.0, 1.0, -1.0),
    (0.5, 0.5, -0.5),
    (0.2, 0.1, 0.05),
    (0.0, 0.0, 0.0),
)
RELATION_P = (0.0, 0.05, 0.1, 0.2, 0.25, 0.3)
RELATION_EXTRA = (-1.0, float("nan"), float("inf"), 2.0)
RELATION = "49394f61bda4685ad8057e53d19f1f62a7ed30df5e2975cce412e73042507ee0"


def _outcome(fn, *args) -> bytes:
    """repr of the value, or the exception type name: messages are not pinned."""
    try:
        return repr(fn(*args)).encode()
    except Exception as exc:  # a raised outcome is pinned like a returned one
        return type(exc).__name__.encode()


def test_golden_relation_inverses():
    h = hashlib.sha256()
    for state in RELATION_STATES:
        r0 = CorrelationVector(*state)
        for kind in ChannelKind:
            case_hs = RelationCase(kind, Norm.HS, r0)
            case_tr = RelationCase(kind, Norm.TRACE, r0)
            evolved = [evolved_vector(kind, r0, p) for p in RELATION_P]
            es = [hs_entanglement(v).value for v in evolved] + list(RELATION_EXTRA)
            cs = [concurrence_x(bd_to_xstate(v)).value for v in evolved] + list(RELATION_EXTRA)
            for e, c in zip(es, cs):
                for k in (None, "1", "2", "3"):
                    d_label = None if k is None else "D" + k
                    r_label = None if k is None else "r" + k
                    h.update(_outcome(hs_discord_from_entanglement, e, case_hs, d_label) + b"\0")
                    h.update(_outcome(trace_discord_from_concurrence, c, case_tr, r_label) + b"\0")
    assert h.hexdigest() == RELATION


# verify reports at a reduced size: two seeds, and one run with a user X state
# whose coherences carry phases.  The hash covers every report byte, the
# evaluation counts of the oracles included.
VERIFY_SIZES = ("--grid", "5", "--xstates", "50", "--wootters", "500")
VERIFY_XSTATE = XState(0.3, 0.2, 0.1, 0.4, 0.2 + 0.1j, 0.05j)
VERIFY = "72821d3512244e44a4b3e460947308d6571a4a4f9ab5d043fd8143f5aa51f937"


def test_golden_verify_reports(tmp_path, capsys):
    xstate_file = tmp_path / "x.json"
    xstate_file.write_text(json.dumps(VERIFY_XSTATE.to_json()))
    h = hashlib.sha256()
    for extra in (("--seed", "42"), ("--seed", "7"), ("--seed", "42", "--xstate", str(xstate_file))):
        code = main(["verify", *VERIFY_SIZES, *extra])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        h.update(captured.out.encode() + b"\0")
    assert h.hexdigest() == VERIFY
