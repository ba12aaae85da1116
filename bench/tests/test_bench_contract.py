"""BENCHMARK.json, the metric tables and expected.json stay consistent."""

import json
import os
import re

import pytest

import harness
import manifest
import modules

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_what_the_tables_render():
    with open(manifest.MANIFEST_PATH) as handle:
        assert json.load(handle) == manifest.manifest()


def test_manifest_respects_the_contract_limits():
    doc = manifest.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(row["unit"])
               for key in ("end_to_end", "per_layer") for row in doc[key])
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"]
               for row in doc["workloads"])
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert all(0 < row["bound"] <= 0.25 for row in doc["end_to_end"])
    setup = next(r for r in doc["end_to_end"] if r["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in doc["end_to_end"])
    assert set(manifest.EXACT_COUNTS) <= set(manifest.PER_LAYER_UNITS)
    assert [manifest.rounds_for(name, manifest.RUN_SECONDS)
            for name in manifest.WORKLOADS] == [2, 2, 3, 2]
    assert manifest.rounds_for("explore", 1) == 1


def test_expected_engines_agree_and_broken_variants_fail():
    explore = harness.load_expected("explore")
    for check_id, entry in explore.items():
        if check_id.endswith(".full"):
            twin = explore[check_id.replace(".full", ".compact")]
            assert twin == entry, check_id
        if "broken" in check_id:
            assert entry["verdict"] == "violation" and entry["trace_len"]
        elif check_id.endswith("-20k"):
            assert entry == {"verdict": "budget"}
        else:
            assert entry["verdict"] == "holds" and entry["trace_len"] is None
    for name, entry in harness.load_expected("certify").items():
        assert entry["ok"] == ("broken" not in name)
        assert bool(entry["failed"]) == ("broken" in name)
    for name, entry in harness.load_expected("symbolic").items():
        # bounded search never claims HOLDS
        assert entry["verdict"] in ("violation", "unknown")
        assert (entry["verdict"] == "violation") == \
            (name.startswith("wide8") or "broken" in name)


def test_expected_serve_shapes_match_the_closed_forms():
    serve = harness.load_expected("serve")
    assert set(serve) == {f"ring-{n}-{b}" for n, b in modules.SHAPES}
    for n, b in modules.SHAPES:
        module = modules.probe_module(n, b, "t")
        entry = serve[module.shape]
        assert (entry["states"], entry["edges"]) == \
            (module.states, module.edges)
        assert 2_000 <= entry["states"] <= 3_000


def test_symbolic_mutex_trace_matches_the_golden_bfs_trace():
    golden = os.path.join(manifest.REPO_ROOT, "tests", "goldens",
                          "mutex_trace.txt")
    if not os.path.exists(golden):
        pytest.skip("no golden trace in this checkout")
    with open(golden) as handle:
        header = next(line for line in handle
                      if line.split()[:2] == ["state", "0"])
    entry = harness.load_expected("symbolic")["mutex-2-2-broken.depth12"]
    assert entry["trace_len"] == len(header.split()) - 1 == entry["depth"] + 1


def test_mismatches_and_judge_report_instead_of_raising():
    assert harness.mismatches({"a": 1}, {"a": 1, "extra": 2}) == []
    assert harness.mismatches({"a": 1, "b": None}, {"a": 2}) == \
        ["a: expected 1, got 2"]

    def explode():
        raise ValueError("bad record")

    outcome = harness.judge("c", 0.5, {"a": 1}, explode)
    assert not outcome.correct and "ValueError" in outcome.problems[0]
    assert harness.judge("c", 0.5, {"a": 1}, lambda: {"a": 1}).correct


def test_deadline_turns_a_hang_into_a_failed_check():
    import time

    with pytest.raises(harness.CheckTimeout):
        with harness.deadline(1):
            time.sleep(5)
