"""CLI subcommand coverage: trace, explore --show, check exit codes,
StateSpaceExplosion surfacing, the --stats observability layer, and the
durable-run flags (--checkpoint / --resume / manifests)."""

import io
import json

import pytest

import repro.tools.cli as cli_module
from repro.checker.checkpoint import read_checkpoint
from repro.tools.cli import main

COUNTER_TLA = """
MODULE Counter
CONSTANT N = 3
VARIABLE x \\in 0..2
Init == x = 0
Next == x' = (x + 1) % N
Spec == Init /\\ [][Next]_<<x>> /\\ WF_<<x>>(Next)
Small == x < 3
TooSmall == x < 2
Progress == (x = 0) ~> (x = 2)
Stuck == (x = 0) ~> (x = 3)
"""


@pytest.fixture
def module_file(tmp_path):
    path = tmp_path / "Counter.tla"
    path.write_text(COUNTER_TLA)
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def run_cli_full(monkeypatch):
    """``run_cli`` with the pipeline's engine choice pinned to the full
    dict-backed engine -- the reference the default compact run must
    reproduce byte for byte."""
    def run(*argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli_module, "choose_mode",
                          lambda *args, **kwargs: "parallel")
            return run_cli(*argv)
    return run


class TestCheckExitCodes:
    def test_ok_is_exit_zero(self, module_file):
        code, text = run_cli("check", module_file, "--invariant", "Small")
        assert code == 0
        assert "[OK] Small" in text

    def test_failure_is_exit_one_with_counterexample(self, module_file):
        code, text = run_cli("check", module_file, "--invariant", "TooSmall")
        assert code == 1
        assert "[FAIL]" in text or "TooSmall" in text
        # a rendered trace reaches the violating state
        assert "x" in text

    def test_mixed_results_still_exit_one(self, module_file):
        code, text = run_cli("check", module_file,
                             "--invariant", "Small",
                             "--invariant", "TooSmall")
        assert code == 1
        assert "[OK] Small" in text

    def test_edge_line_reports_real_and_stutter_separately(self, module_file):
        code, text = run_cli("check", module_file)
        assert code == 0
        # 3 reachable states, 3 real N-edges, 3 materialised stutter loops
        assert "3 states, 3 edges (+3 stutter)" in text

    def test_explosion_surfaces_as_exit_two(self, module_file):
        code, text = run_cli("check", module_file, "--max-states", "1")
        assert code == 2
        assert "StateSpaceExplosion" in text
        assert "state budget" in text and "1" in text

    def test_missing_file_is_exit_two(self):
        code, text = run_cli("check", "/nonexistent/No.tla")
        assert code == 2
        assert "error" in text


class TestExplore:
    def test_show_limits_states_printed(self, module_file):
        code, text = run_cli("explore", module_file, "--show", "2")
        assert code == 0
        assert text.count("State(") == 2
        assert "first 2 state(s):" in text

    def test_show_zero_prints_no_states(self, module_file):
        code, text = run_cli("explore", module_file, "--show", "0")
        assert code == 0
        assert "State(" not in text

    def test_show_clamped_to_state_count(self, module_file):
        code, text = run_cli("explore", module_file, "--show", "99")
        assert code == 0
        assert text.count("State(") == 3

    def test_reports_real_and_stutter_edges(self, module_file):
        code, text = run_cli("explore", module_file)
        assert code == 0
        assert "states: 3" in text
        assert "edges:  3 (+3 stutter)" in text

    def test_explosion_is_exit_two(self, module_file):
        code, text = run_cli("explore", module_file, "--max-states", "2")
        assert code == 2
        assert "StateSpaceExplosion" in text


class TestWorkers:
    def test_workers_output_identical_to_serial(self, module_file):
        code_serial, serial = run_cli("check", module_file,
                                      "--invariant", "Small")
        code_par, par = run_cli("check", module_file,
                                "--invariant", "Small", "--workers", "2")
        assert code_serial == code_par == 0
        assert par == serial  # same graph, same counts, same report

    def test_explore_workers_identical_to_serial(self, module_file):
        _, serial = run_cli("explore", module_file, "--show", "99")
        code, par = run_cli("explore", module_file, "--show", "99",
                            "--workers", "2")
        assert code == 0
        assert par == serial  # same states printed in the same numbering

    def test_parallel_explosion_same_exit_and_budget(self, module_file):
        code, text = run_cli("check", module_file, "--max-states", "1",
                             "--workers", "2")
        assert code == 2
        assert "StateSpaceExplosion" in text

    def test_stats_report_worker_block(self, module_file):
        code, text = run_cli("explore", module_file, "--stats",
                             "--workers", "2")
        assert code == 0
        assert "workers" in text


class TestTrace:
    def test_header_and_variable_rows(self, module_file):
        code, text = run_cli("trace", module_file, "--steps", "5", "--seed", "3")
        assert code == 0
        lines = [line for line in text.splitlines() if line.strip()]
        header = lines[0].split()
        assert header[0] == "step"
        assert header[1:] == [str(i) for i in range(len(header) - 1)]
        assert any(line.split()[0] == "x" for line in lines[1:])

    def test_deterministic_by_seed(self, module_file):
        _, first = run_cli("trace", module_file, "--steps", "8", "--seed", "7")
        _, second = run_cli("trace", module_file, "--steps", "8", "--seed", "7")
        assert first == second

    def test_trace_values_follow_spec(self, module_file):
        code, text = run_cli("trace", module_file, "--steps", "6", "--seed", "1")
        assert code == 0
        row = next(line for line in text.splitlines()
                   if line.split() and line.split()[0] == "x")
        values = [int(v) for v in row.split()[1:]]
        assert values[0] == 0
        for pre, post in zip(values, values[1:]):
            assert post in ((pre + 1) % 3, pre)


class TestStats:
    def test_check_stats_prints_throughput_depth_and_edge_split(
            self, module_file):
        code, text = run_cli("check", module_file,
                             "--invariant", "Small", "--stats")
        assert code == 0
        assert "states/sec" in text
        assert "depth 2" in text
        assert "3 real edges + 3 stutter" in text
        assert "invariant:Small" in text  # per-phase timing

    def test_check_stats_includes_liveness_phase(self, module_file):
        code, text = run_cli("check", module_file,
                             "--property", "Progress", "--stats")
        assert code == 0
        assert "liveness:Progress" in text

    def test_explore_stats(self, module_file):
        code, text = run_cli("explore", module_file, "--stats")
        assert code == 0
        assert "states/sec" in text
        assert "depth 2" in text

    def test_no_stats_by_default(self, module_file):
        code, text = run_cli("check", module_file, "--invariant", "Small")
        assert code == 0
        assert "states/sec" not in text


class TestStatsJson:
    def test_check_stats_json_writes_machine_readable_file(
            self, module_file, tmp_path):
        path = tmp_path / "stats.json"
        code, text = run_cli("check", module_file, "--invariant", "Small",
                             "--stats-json", str(path))
        assert code == 0
        assert "states/sec" not in text  # no human summary unless --stats
        stats = json.loads(path.read_text())
        assert stats["states"] == 3
        assert stats["depth"] == 2
        assert stats["levels_seen"] == 3
        assert sorted(stats["phases"]) == ["explore", "invariant:Small", "plan"]

    def test_explore_stats_json_and_stats_compose(self, module_file,
                                                  tmp_path):
        path = tmp_path / "stats.json"
        code, text = run_cli("explore", module_file, "--stats",
                             "--stats-json", str(path))
        assert code == 0
        assert "states/sec" in text  # both renderings at once
        assert json.loads(path.read_text())["states"] == 3

    def test_stats_json_written_even_on_explosion(self, module_file,
                                                  tmp_path):
        path = tmp_path / "stats.json"
        code, _ = run_cli("check", module_file, "--max-states", "1",
                          "--stats-json", str(path))
        assert code == 2
        # the partial document still lands, machine-readable
        assert "states" in json.loads(path.read_text())


class TestParseTimeValidation:
    """--checkpoint-every and --max-states reject non-positive values
    as usage errors (exit 2) before any work starts."""

    @pytest.mark.parametrize("flags", [
        ("--checkpoint-every", "0"),
        ("--checkpoint-every", "-3"),
        ("--checkpoint-every", "two"),
        ("--max-states", "0"),
        ("--max-states", "-5"),
    ])
    def test_bad_values_are_usage_errors(self, module_file, flags):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("check", module_file, *flags)
        assert excinfo.value.code == 2

    def test_boundary_value_one_is_accepted(self, module_file):
        code, _ = run_cli("check", module_file, "--invariant", "Small",
                          "--checkpoint-every", "1")
        assert code == 0


class TestDurableRuns:
    def _paths(self, tmp_path):
        cp = str(tmp_path / "run.ckpt")
        return cp, cp + ".manifest.json"

    def test_checkpoint_writes_snapshot_and_manifest(self, module_file,
                                                     tmp_path):
        cp, manifest = self._paths(tmp_path)
        code, _ = run_cli("check", module_file, "--invariant", "Small",
                          "--checkpoint", cp)
        assert code == 0
        snapshot = read_checkpoint(cp)
        assert snapshot.header["format"] == "repro-checkpoint"
        assert snapshot.spec_name
        with open(manifest) as handle:
            data = json.load(handle)
        assert data["format"] == "repro-run-manifest"
        assert data["spec"] == "Counter!Spec"
        assert data["outcome"] == "ok"
        assert data["states"] == 3
        assert data["counterexample"] is None
        assert data["wall_seconds"] >= 0

    def test_manifest_records_invariant_violation(self, module_file,
                                                  tmp_path):
        cp, manifest = self._paths(tmp_path)
        code, _ = run_cli("check", module_file, "--invariant", "TooSmall",
                          "--checkpoint", cp)
        assert code == 1
        data = json.load(open(manifest))
        assert data["outcome"] == "violation"
        cex = data["counterexample"]
        assert cex["kind"] == "finite"
        assert "x" in cex["rendered"]
        assert len(cex["states"]) >= 2

    def test_manifest_records_liveness_violation_as_lasso(self, module_file,
                                                          tmp_path):
        cp, manifest = self._paths(tmp_path)
        code, text = run_cli("check", module_file, "--property", "Stuck",
                             "--checkpoint", cp)
        assert code == 1
        assert "counterexample" in text
        data = json.load(open(manifest))
        assert data["outcome"] == "violation"
        assert data["counterexample"]["kind"] == "lasso"
        assert "loop_start" in data["counterexample"]

    def test_resume_output_identical_to_fresh_run(self, module_file,
                                                  tmp_path):
        cp, _ = self._paths(tmp_path)
        code_fresh, fresh = run_cli("explore", module_file, "--show", "99",
                                    "--checkpoint", cp)
        assert code_fresh == 0
        code_resumed, resumed = run_cli("explore", module_file, "--show",
                                        "99", "--checkpoint", cp, "--resume")
        assert code_resumed == 0
        assert resumed == fresh  # same graph, same numbering, same counts

    def test_resume_without_checkpoint_is_exit_two(self, module_file):
        for command in ("check", "explore"):
            code, text = run_cli(command, module_file, "--resume")
            assert code == 2
            assert "--resume requires --checkpoint" in text

    def test_explosion_manifest_then_resume_with_bigger_budget(
            self, module_file, tmp_path):
        cp, manifest = self._paths(tmp_path)
        code, _ = run_cli("check", module_file, "--max-states", "2",
                          "--checkpoint", cp)
        assert code == 2
        data = json.load(open(manifest))
        assert data["outcome"] == "explosion"
        assert "budget" in data["error"]
        # the pre-explosion snapshot survives; a larger budget finishes
        code, text = run_cli("check", module_file, "--max-states", "3",
                             "--checkpoint", cp, "--resume")
        assert code == 0
        assert "3 states" in text
        assert json.load(open(manifest))["outcome"] == "ok"

    def test_worker_timeout_flag_keeps_output_identical(self, module_file):
        _, serial = run_cli("check", module_file, "--invariant", "Small")
        code, timed = run_cli("check", module_file, "--invariant", "Small",
                              "--workers", "2", "--worker-timeout", "60")
        assert code == 0
        assert timed == serial

    def test_parallel_checkpoint_resume(self, module_file, tmp_path):
        cp, manifest = self._paths(tmp_path)
        code, fresh = run_cli("explore", module_file, "--show", "99",
                              "--workers", "2", "--checkpoint", cp)
        assert code == 0
        code, resumed = run_cli("explore", module_file, "--show", "99",
                                "--workers", "2", "--checkpoint", cp,
                                "--resume")
        assert code == 0
        assert resumed == fresh
        assert json.load(open(manifest))["workers"] == 2


class TestCounterexampleRegressions:
    """repro check must exit nonzero on *any* counterexample, and trace
    rendering must stay robust for degenerate variable selections."""

    def test_failing_property_is_exit_one(self, module_file):
        code, text = run_cli("check", module_file, "--property", "Stuck")
        assert code == 1
        assert "[FAILED] Stuck" in text
        assert "counterexample" in text

    def test_failing_property_and_passing_invariant_still_exit_one(
            self, module_file):
        code, _ = run_cli("check", module_file, "--invariant", "Small",
                          "--property", "Stuck")
        assert code == 1

    def test_render_with_empty_variables_falls_back_to_all(self):
        from repro.checker.results import Counterexample
        from repro.kernel.behavior import FiniteBehavior, Lasso
        from repro.kernel.state import State

        trace = FiniteBehavior([State({"x": 0}), State({"x": 1})])
        cex = Counterexample(trace, "boom")
        for empty in ((), []):
            rendered = cex.render(variables=empty)
            assert rendered == cex.render()
            assert "x" in rendered  # not a header-only table
        lasso = Counterexample(Lasso([State({"x": 0})], 0), "boom")
        assert "x" in lasso.render(variables=())


class TestCompactEngine:
    """The compact engine runs by default: same verdicts, traces, and
    rendered output as the full engine, plus the stats surface the
    collision report rides on."""

    def test_check_output_identical_to_full(self, module_file,
                                            run_cli_full):
        for flags in (("--invariant", "Small"), ("--invariant", "TooSmall"),
                      ("--property", "Progress"), ("--property", "Stuck")):
            code_full, full = run_cli_full("check", module_file, *flags)
            code_compact, compact = run_cli("check", module_file, *flags)
            assert code_compact == code_full
            assert compact == full  # byte-identical, trace included

    def test_explore_output_identical_to_full(self, module_file,
                                              run_cli_full):
        _, full = run_cli_full("explore", module_file, "--show", "99")
        code, compact = run_cli("explore", module_file, "--show", "99")
        assert code == 0
        assert compact == full

    def test_stats_report_engine_and_collision_bound(self, module_file):
        code, text = run_cli("check", module_file, "--invariant", "Small",
                             "--property", "Progress", "--stats")
        assert code == 0
        assert "engine: compact" in text
        assert "collision probability bound" in text
        assert "collision(s) detected" not in text

    def test_stats_json_records_engine(self, module_file, tmp_path):
        out = tmp_path / "stats.json"
        code, _ = run_cli("check", module_file, "--invariant", "Small",
                          "--stats-json", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["engine"] == "compact"
        assert payload["fingerprint_collisions"] == 0
        assert 0 <= payload["collision_probability_bound"] < 1

    def test_checkpoint_resume_identical(self, module_file, tmp_path):
        cp = str(tmp_path / "c.ckpt")
        _, fresh = run_cli("explore", module_file, "--show", "99")
        code, _ = run_cli("explore", module_file, "--show", "99",
                          "--checkpoint", cp)
        assert code == 0
        assert read_checkpoint(cp).mode == "compact"
        code, resumed = run_cli("explore", module_file, "--show", "99",
                                "--checkpoint", cp, "--resume")
        assert code == 0
        assert resumed == fresh
        manifest = json.loads((tmp_path / "c.ckpt.manifest.json").read_text())
        assert "store" not in manifest

    def test_compact_workers_identical_to_serial(self, module_file):
        _, serial = run_cli("check", module_file, "--invariant", "TooSmall")
        code, parallel = run_cli("check", module_file, "--invariant",
                                 "TooSmall", "--workers", "2")
        assert code == 1
        assert parallel == serial


class TestUsageErrorPaths:
    """Broken inputs exit 2 with an actionable one-line error -- never a
    traceback, never a silent fallback (the CheckpointError audit)."""

    def test_resume_with_missing_checkpoint_file(self, module_file,
                                                 tmp_path):
        code, text = run_cli("check", module_file, "--checkpoint",
                             str(tmp_path / "nope.ckpt"), "--resume")
        assert code == 2
        assert "error: cannot resume" in text
        assert "does not exist" in text

    def test_resume_with_corrupt_checkpoint(self, module_file, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("{not json")
        code, text = run_cli("check", module_file, "--checkpoint",
                             str(bad), "--resume")
        assert code == 2
        assert "error:" in text and "unreadable checkpoint" in text
        assert "Traceback" not in text

    def test_resume_with_non_object_checkpoint(self, module_file, tmp_path):
        bad = tmp_path / "list.ckpt"
        bad.write_text("[1, 2, 3]")
        code, text = run_cli("explore", module_file, "--checkpoint",
                             str(bad), "--resume")
        assert code == 2
        assert "not a JSON object" in text

    def test_resume_with_wrong_format_checkpoint(self, module_file,
                                                 tmp_path):
        bad = tmp_path / "foreign.ckpt"
        bad.write_text(json.dumps({"format": "something-else"}))
        code, text = run_cli("check", module_file, "--checkpoint",
                             str(bad), "--resume")
        assert code == 2
        assert "error:" in text

    def test_resume_continues_on_the_engine_that_wrote_the_log(
            self, module_file, tmp_path, run_cli_full):
        full_cp = str(tmp_path / "full.ckpt")
        compact_cp = str(tmp_path / "compact.ckpt")
        assert run_cli_full("check", module_file, "--invariant", "Small",
                            "--checkpoint", full_cp)[0] == 0
        assert run_cli("check", module_file, "--invariant", "Small",
                       "--checkpoint", compact_cp)[0] == 0
        assert read_checkpoint(full_cp).mode is None
        assert read_checkpoint(compact_cp).mode == "compact"
        for path in (full_cp, compact_cp):
            code, text = run_cli("check", module_file, "--invariant",
                                 "Small", "--checkpoint", path, "--resume",
                                 "--stats")
            assert code == 0
            assert ("engine: compact" in text) == (path == compact_cp)

    @pytest.mark.parametrize("argv", [
        ("check", "--por"), ("check", "--no-por"), ("explore", "--por"),
        ("submit", "--por"),
    ])
    def test_retired_reduction_flags_are_usage_errors(self, module_file,
                                                      capsys, argv):
        """Partial-order reduction is gone: its flags exit 2 naming
        themselves, before any module is read or server contacted."""
        verb, flag = argv
        with pytest.raises(SystemExit) as exited:
            main([verb, module_file, flag])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_help_lists_no_engine_or_store_flag(self, capsys):
        for verb in ("check", "explore", "submit"):
            with pytest.raises(SystemExit):
                main([verb, "--help"])
            text = capsys.readouterr().out
            for flag in ("--compact", "--store", "--spill-dir",
                         "--spill-cache", "--por"):
                assert flag not in text, (verb, flag)


class TestBundledModules:
    """The @name:key=val,... surface over the protocol corpus."""

    def test_mutex_ok_instance(self):
        code, text = run_cli("check", "@mutex:n=2,clock=2",
                             "--invariant", "MutualExclusion")
        assert code == 0
        assert "135 states" in text
        assert "[OK] MutualExclusion" in text

    def test_mutex_broken_instance_violates(self):
        code, text = run_cli("check", "@mutex:n=2,clock=2,broken",
                             "--invariant", "MutualExclusion")
        assert code == 1
        assert "cs1" in text  # the rendered trace shows both CS flags

    def test_paxos_defaults_and_liveness(self):
        code, text = run_cli("check", "@paxos",
                             "--invariant", "Agreement",
                             "--property", "EventuallyDecides")
        assert code == 0
        assert "[OK] Agreement" in text
        assert "[OK] EventuallyDecides" in text

    def test_paxos_broken_agreement_fails(self):
        code, text = run_cli("check", "@paxos:broken",
                             "--invariant", "Agreement")
        assert code == 1

    def test_bundled_compact_matches_full_output(self, run_cli_full):
        ref_code, ref_text = run_cli_full("check", "@mutex:n=2,clock=2",
                                          "--invariant", "MutualExclusion")
        code, text = run_cli("check", "@mutex:n=2,clock=2",
                             "--invariant", "MutualExclusion")
        assert (code, text) == (ref_code, ref_text)

    def test_unknown_bundled_name_is_exit_two(self):
        code, text = run_cli("check", "@nope")
        assert code == 2
        assert "no bundled system" in text

    def test_unknown_parameter_is_exit_two(self):
        code, text = run_cli("check", "@mutex:frobnicate=3")
        assert code == 2
        assert "unknown mutex parameter" in text

    def test_bad_parameter_value_is_exit_two(self):
        code, text = run_cli("check", "@paxos:ballots=many")
        assert code == 2
        assert "not an integer" in text

    def test_explore_and_trace_work_on_bundled(self):
        code, text = run_cli("explore", "@paxos:acceptors=2", "--show", "1")
        assert code == 0
        assert "states:" in text
        code, text = run_cli("trace", "@mutex:n=2,clock=2", "--steps", "3",
                             "--seed", "11")
        assert code == 0
        assert "clk1" in text


class TestUnpackableSpecsAreRefused:
    """No engine enumerates what the packed codec cannot represent: the
    check exits 2 with :func:`~repro.kernel.packed.support_problem`'s
    reason, and the library raises ``CompactUnsupported``."""

    HUGE_TLA = """
MODULE Huge
VARIABLE x \\in 0..1048576
Init == x = 0
Next == x' = x
Spec == Init /\\ [][Next]_<<x>>
Small == x < 3
"""

    def test_oversized_domain_exits_two_with_the_reason(self, tmp_path,
                                                         run_cli_full):
        from repro.kernel.packed import MAX_DOMAIN_SIZE, support_problem
        from repro.parser import load_module

        path = tmp_path / "Huge.tla"
        path.write_text(self.HUGE_TLA)
        spec = load_module(self.HUGE_TLA).spec()
        assert spec.universe.domain("x").size() == MAX_DOMAIN_SIZE + 1
        reason = support_problem(spec)
        assert reason is not None
        for run in (run_cli, run_cli_full):
            code, text = run("check", str(path), "--invariant", "Small")
            assert code == 2
            assert text.strip().splitlines()[-1] == f"error: {reason}"

    def test_oversized_domain_raises_in_the_library(self):
        from repro.checker import (CompactUnsupported, explore,
                                   explore_compact)
        from repro.checker.explorer import initial_states
        from repro.kernel import Const, Eq, FiniteDomain, Universe, Var
        from repro.kernel.packed import MAX_DOMAIN_SIZE, support_problem
        from repro.spec import Spec

        universe = Universe(
            {"x": FiniteDomain(range(MAX_DOMAIN_SIZE + 1))})
        spec = Spec("huge", Eq(Var("x"), Const(0)),
                    Eq(Var("x", primed=True), Var("x")), ("x",), universe)
        reason = support_problem(spec)
        for run in (explore, explore_compact,
                    lambda spec: list(initial_states(spec.init, universe))):
            with pytest.raises(CompactUnsupported) as refused:
                run(spec)
            assert str(refused.value) == reason

    def test_zero_variable_universe_is_refused(self, tmp_path):
        """A spec cannot even be built over no variables (its subscript
        must name declared ones), so the check stops there; the packed
        walker refuses the bare universe with the codec's reason."""
        from repro.checker import CompactUnsupported
        from repro.checker.explorer import initial_states
        from repro.kernel import Const, Universe
        from repro.kernel.packed import support_problem

        empty = Universe({})
        with pytest.raises(CompactUnsupported) as refused:
            list(initial_states(Const(True), empty))
        assert str(refused.value) == support_problem(empty)
        path = tmp_path / "NoVars.tla"
        path.write_text("MODULE NoVars\nInit == TRUE\nNext == TRUE\n"
                        "Spec == Init /\\ [][Next]_v\nSmall == TRUE\n")
        code, text = run_cli("check", str(path), "--invariant", "Small")
        assert code == 2 and "undeclared variables: ['v']" in text
