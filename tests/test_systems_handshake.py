"""Unit tests for the two-phase handshake channel (Figure 2)."""

import pytest

from repro.kernel import FiniteDomain, State, Var, holds_on_step, successors
from repro.systems.handshake import (
    ack,
    channel_universe,
    channel_vars,
    check_protocol_trace,
    cinit,
    in_flight_expr,
    pending,
    protocol_trace,
    ready,
    render_figure2,
    send,
    snd_vars,
)

MSG = FiniteDomain([0, 1])
U = channel_universe("c", MSG)


def chan_state(sig, ack_value, val):
    return State({"c.sig": sig, "c.ack": ack_value, "c.val": val})


class TestVocabulary:
    def test_channel_vars(self):
        assert channel_vars("c") == ("c.sig", "c.ack", "c.val")
        assert snd_vars("c") == ("c.sig", "c.val")

    def test_universe(self):
        assert set(U.variables) == set(channel_vars("c"))

    def test_cinit(self):
        assert cinit("c").eval_state(chan_state(0, 0, 1)) is True
        assert cinit("c").eval_state(chan_state(1, 0, 1)) is False

    def test_ready_pending(self):
        assert ready("c").eval_state(chan_state(0, 0, 0)) is True
        assert pending("c").eval_state(chan_state(1, 0, 0)) is True

    def test_in_flight(self):
        assert in_flight_expr("c").eval_state(chan_state(0, 0, 7)) == ()
        assert in_flight_expr("c").eval_state(chan_state(1, 0, 7)) == (7,)


class TestSendAck:
    def test_send_from_ready(self):
        result = list(successors(send(1, "c"), chan_state(0, 0, 0), U))
        assert result == [chan_state(1, 0, 1)]

    def test_send_blocked_when_pending(self):
        assert list(successors(send(1, "c"), chan_state(1, 0, 0), U)) == []

    def test_send_frames_ack(self):
        """Our deviation note: Send keeps c.ack unchanged."""
        step = send(1, "c")
        assert not holds_on_step(step, chan_state(0, 0, 0), chan_state(1, 1, 1))

    def test_ack_from_pending(self):
        result = list(successors(ack("c"), chan_state(1, 0, 1), U))
        assert result == [chan_state(1, 1, 1)]

    def test_ack_out_of_domain_value_is_refused(self):
        # c.val = 5 is outside the message domain: the pre-state is not a
        # state of the universe, and the walker says which value is not
        with pytest.raises(ValueError, match=r"'c\.val' has value 5"):
            successors(ack("c"), chan_state(1, 0, 5), U)

    def test_ack_blocked_when_ready(self):
        assert list(successors(ack("c"), chan_state(0, 0, 1), U)) == []

    def test_ack_frames_snd(self):
        assert not holds_on_step(ack("c"), chan_state(1, 0, 1),
                                 chan_state(1, 1, 0))

    def test_send_expression_value(self):
        v = Var("k")
        step = send(v, "c")
        assert "k" in step.free_vars()


class TestFigure2:
    def test_render_matches_paper(self):
        table = render_figure2("c", (37, 4, 19))
        lines = table.splitlines()
        assert "initial state" in lines[0]
        assert "37 sent" in lines[0] and "37 acked" in lines[0]
        assert "19 sent" in lines[0]
        # rows exactly as printed in the paper
        assert lines[1].split()[1:] == ["0", "0", "1", "1", "0", "0"]
        assert lines[2].split()[1:] == ["0", "1", "1", "0", "0", "1"]
        assert lines[3].split()[1:] == ["-", "37", "37", "4", "4", "19"]

    def test_trace_follows_protocol(self):
        trace = protocol_trace("c", [37, 4, 19], initial_val=0)
        assert check_protocol_trace(trace, "c") == []
        long_trace = protocol_trace("c", [v % 2 for v in range(1000)],
                                    initial_val=0)
        assert len(long_trace) == 2 * 1000
        assert check_protocol_trace(long_trace, "c") == []

    def test_trace_length(self):
        # initial + (send, ack) per value except last value unacked
        trace = protocol_trace("c", [1, 0, 1], initial_val=0)
        assert len(trace) == 1 + 2 + 2 + 1

    def test_corrupted_trace_detected(self):
        trace = protocol_trace("c", [1, 0], initial_val=0)
        states = list(trace.states)
        states[1] = states[1].update({"c.sig": states[0]["c.sig"]})
        from repro.kernel import FiniteBehavior

        problems = check_protocol_trace(FiniteBehavior(states), "c")
        assert problems
