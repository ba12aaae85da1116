"""The two-phase handshake protocol of the paper's Figure 2.

The state of a channel ``c`` has three components: the value ``c.val``
being sent and two synchronisation bits ``c.sig`` and ``c.ack``.  The
channel is *ready to send* when ``c.sig = c.ack``.  A value ``v`` is sent
by setting ``c.val`` to ``v`` and complementing ``c.sig``; receipt is
acknowledged by complementing ``c.ack``.

This module defines the channel vocabulary used throughout the queue
example: variable-name helpers, the initial condition ``CInit``, the
``Send``/``Ack`` actions, and a trace generator that reproduces Figure 2's
table literally.

**Deviation note** (recorded in DESIGN.md): the paper's ``Send(v, c)``
constrains only ``c.snd' = <v, 1 - c.sig>``, leaving ``c.ack'``
unconstrained, while ``Ack(c)`` explicitly frames ``c.snd' = c.snd``.  We
add the symmetric frame ``c.ack' = c.ack`` to ``Send`` so that the
complete-system specification of Figure 6 equals the conjunction of the
component specifications -- which is what the paper's composition story
requires (and obviously what Figure 2's protocol intends).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..kernel.behavior import FiniteBehavior
from ..kernel.expr import And, Eq, Expr, Not, Var, to_expr
from ..kernel.state import State, Universe
from ..kernel.values import BIT, Domain, FiniteDomain


def sig(chan: str) -> Var:
    return Var(f"{chan}.sig")


def ack_bit(chan: str) -> Var:
    return Var(f"{chan}.ack")


def val(chan: str) -> Var:
    return Var(f"{chan}.val")


def channel_vars(chan: str) -> Tuple[str, str, str]:
    """The triple the paper writes as ``c = <c.sig, c.ack, c.val>``."""
    return (f"{chan}.sig", f"{chan}.ack", f"{chan}.val")


def snd_vars(chan: str) -> Tuple[str, str]:
    """The pair the paper writes as ``c.snd = <c.sig, c.val>``."""
    return (f"{chan}.sig", f"{chan}.val")


def channel_universe(chan: str, msg: Domain) -> Universe:
    return Universe({
        f"{chan}.sig": BIT,
        f"{chan}.ack": BIT,
        f"{chan}.val": msg,
    })


def cinit(chan: str) -> Expr:
    """``CInit(c) ≜ c.sig = c.ack = 0`` -- the channel is ready to send.

    ``c.val`` is unconstrained initially (the '-' entry in Figure 2)."""
    return And(Eq(sig(chan), 0), Eq(ack_bit(chan), 0))


def ready(chan: str) -> Expr:
    """The channel is ready for a new send: ``c.sig = c.ack``."""
    return Eq(sig(chan), ack_bit(chan))


def pending(chan: str) -> Expr:
    """A value is in flight, awaiting acknowledgement: ``c.sig ≠ c.ack``."""
    return Not(Eq(sig(chan), ack_bit(chan)))


def send(value: object, chan: str) -> Expr:
    """``Send(v, c)``: send *value* over the channel (see deviation note)."""
    value = to_expr(value)
    return And(
        Eq(sig(chan), ack_bit(chan)),
        Eq(val(chan).prime(), value),
        Eq(sig(chan).prime(), 1 - sig(chan)),
        Eq(ack_bit(chan).prime(), ack_bit(chan)),
    )


def ack(chan: str) -> Expr:
    """``Ack(c)``: acknowledge receipt of the value in flight."""
    return And(
        Not(Eq(sig(chan), ack_bit(chan))),
        Eq(ack_bit(chan).prime(), 1 - ack_bit(chan)),
        Eq(sig(chan).prime(), sig(chan)),
        Eq(val(chan).prime(), val(chan)),
    )


def in_flight_expr(chan: str) -> Expr:
    """The sequence of values in flight on the channel: ``<c.val>`` when a
    send is unacknowledged, else ``<>``.  This is the ``buffer`` used by the
    double-queue refinement mapping of section A.4."""
    from ..kernel.expr import IfThenElse, TupleExpr

    return IfThenElse(ready(chan), TupleExpr(), TupleExpr(val(chan)))


# ---------------------------------------------------------------------------
# Figure 2: the protocol trace
# ---------------------------------------------------------------------------

def protocol_trace(chan: str, values: Sequence[object],
                   initial_val: object = 0) -> FiniteBehavior:
    """The alternating send/ack behavior of Figure 2 for the given values.

    Starts in the initial state (``sig = ack = 0``); each value contributes
    a "sent" state followed by an "acked" state, except the last value,
    which is left unacknowledged -- matching the Figure's six columns for
    values 37, 4, 19.
    """
    s, a = f"{chan}.sig", f"{chan}.ack"
    v = f"{chan}.val"
    state = State({s: 0, a: 0, v: initial_val})
    states = [state]
    for index, value in enumerate(values):
        state = state.update({v: value, s: 1 - state[s]})
        states.append(state)  # sent
        if index < len(values) - 1:
            state = state.update({a: 1 - state[a]})
            states.append(state)  # acked
    return FiniteBehavior(states)


def render_figure2(chan: str = "c",
                   values: Sequence[object] = (37, 4, 19)) -> str:
    """Regenerate Figure 2's table (ack/sig/val rows over the trace)."""
    trace = protocol_trace(chan, values, initial_val="-")
    labels = ["initial state"]
    for index, value in enumerate(values):
        labels.append(f"{value} sent")
        if index < len(values) - 1:
            labels.append(f"{value} acked")
    rows: List[List[str]] = [[""] + labels]
    for field in ("ack", "sig", "val"):
        name = f"{chan}.{field}"
        rows.append([f"{name}:"] + [str(state[name]) for state in trace])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    )


def check_protocol_trace(trace: FiniteBehavior, chan: str) -> List[str]:
    """Validate that every step of a trace is a Send, an Ack, or a stutter.

    Returns human-readable problems (empty = the trace follows the
    protocol)."""
    from ..kernel.action import holds_on_step
    from ..kernel.expr import Exists, Or
    from ..kernel.values import FiniteDomain

    problems = []
    for idx, (pre, post) in enumerate(trace.steps()):
        values_seen = {pre[f"{chan}.val"], post[f"{chan}.val"]}
        domain = FiniteDomain(sorted(values_seen, key=repr))
        step_action = Or(
            Exists("v", domain, send(Var("v"), chan)),
            ack(chan),
            And(*[Eq(Var(name).prime(), Var(name)) for name in channel_vars(chan)]),
        )
        if not holds_on_step(step_action, pre, post):
            problems.append(f"step {idx}: {pre!r} -> {post!r} is not Send/Ack/stutter")
    return problems
