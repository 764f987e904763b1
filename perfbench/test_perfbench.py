"""Self-tests of the benchmark: generator, checker, span arithmetic, tracer."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import tracing
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import dsmfuse  # noqa: E402
import dsmfuse.cli  # noqa: E402

SYNTHETIC = [w for w in workloads.WORKLOADS if w != "cli_golden"]


def _files(directory):
    return {p.name: p.read_text() for p in sorted(Path(directory).iterdir())}


def _argv_shape(pool, directory):
    return [(r.rid, [a.replace(str(directory), "<dir>") for a in r.argv]) for r in pool]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a = workloads.build(workload, 5, tmp_path / "a", run.SCENARIOS)
    b = workloads.build(workload, 5, tmp_path / "b", run.SCENARIOS)
    assert _argv_shape(a, tmp_path / "a") == _argv_shape(b, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


@pytest.mark.parametrize("workload", SYNTHETIC)
def test_generator_differs_across_seeds(workload, tmp_path):
    a = workloads.build(workload, 5, tmp_path / "a", run.SCENARIOS)
    b = workloads.build(workload, 6, tmp_path / "b", run.SCENARIOS)
    assert _files(tmp_path / "a") != _files(tmp_path / "b")
    # the shape grid, and so the work per request, does not depend on the seed
    assert sorted((r.rid, r.tuples) for r in a) == sorted((r.rid, r.tuples) for r in b)


def test_masses_have_six_decimals_and_sum_to_one(tmp_path):
    for req in workloads.build("conj_many_sources", 7, tmp_path, run.SCENARIOS):
        scenario = dsmfuse.scenario.load_scenario(req.argv[2])
        for _, mass in scenario.sources:
            values = [v for _, v in mass.items()]
            assert all(round(v, 6) == v for v in values)
            assert abs(sum(values) - 1.0) <= 1e-9


def test_lattice_counts_match_known_sizes():
    assert [len(workloads.upsets(n)) for n in range(1, 6)] == [2, 5, 19, 167, 7580]


def _golden_request():
    return workloads.Request("high_conflict", [], "golden", golden="high_conflict.txt")


def test_checker_rejects_a_flipped_golden_byte():
    goldens = run.load_goldens()
    checker = check.Checker(goldens)
    text = goldens["high_conflict.txt"].decode("utf-8")
    assert checker.check(_golden_request(), 0, text, "") is None
    flipped = text[:10] + chr(ord(text[10]) ^ 1) + text[11:]
    assert checker.check(_golden_request(), 0, flipped, "") is not None


def _fuse_doc(th1, th2):
    return json.dumps({"tasks": [{"rule": "dsm_hybrid", "mass": {"th1": th1, "th2": th2},
                                  "conflict": 0.25, "warnings": []}]})


def test_checker_rejects_a_mass_off_by_one_millionth():
    req = workloads.Request("r", [], "fuse", rule="dsm_hybrid")
    reference = {"r": {"rc": 0, "tasks": check.reference_entry(json.loads(_fuse_doc(0.4, 0.6)))}}
    assert check.Checker({}, reference).check(req, 0, _fuse_doc(0.4, 0.6), "") is None
    off = _fuse_doc(0.4 + 1e-6, 0.6 - 1e-6)
    assert check.Checker({}, reference).check(req, 0, off, "") is not None
    # off the reference seed, the invariants still hold for the shifted masses
    assert check.Checker({}).check(req, 0, off, "") is None
    assert check.Checker({}).check(req, 0, _fuse_doc(0.4, 0.7), "") is not None


def test_checker_accepts_total_conflict_from_dempster_only():
    err = "error: TotalConflict: sources are fully conflicting\n"
    dempster = workloads.Request("d", [], "fuse", rule="dempster")
    smets = workloads.Request("s", [], "fuse", rule="smets")
    assert check.Checker({}).check(dempster, 3, "", err) is None
    assert check.Checker({}).check(smets, 3, "", err) is not None
    assert check.Checker({}).check(dempster, 0, "not json", "") is not None


def test_self_time_on_a_hand_built_span_tree():
    spans = tracing.Spans()
    root = spans.add("cli.main", 0.0, 10.0, -1, 0)
    a = spans.add("scenario.load_scenario", 1.0, 4.0, root, 0)
    b = spans.add("scenario.run", 5.0, 9.0, root, 0)
    c = spans.add("rules.dsm_hybrid", 6.0, 7.0, b, 0)
    # overlapping children of one span are covered once
    d = spans.add("cli.main", 20.0, 30.0, -1, 1)
    spans.add("decision.gpt", 21.0, 25.0, d, 1)
    spans.add("decision.gpt", 24.0, 27.0, d, 1)
    got = tracing.self_times(spans)
    assert got[root] == pytest.approx(3.0)
    assert got[a] == pytest.approx(3.0)
    assert got[b] == pytest.approx(3.0)
    assert got[c] == pytest.approx(1.0)
    assert got[d] == pytest.approx(4.0)
    assert sum(got[:4]) == pytest.approx(10.0)


def _sample_pool(tmp_path):
    pool = workloads.build("cli_golden", 1, tmp_path / "golden", run.SCENARIOS)
    pool += workloads.build("imprecise_triple", 1, tmp_path / "imprecise", run.SCENARIOS)
    wide = workloads.build("wide_lattice", 1, tmp_path / "wide", run.SCENARIOS)
    pool += [r for r in wide if r.rid in ("wide4.decide", "model4.table", "model4.json")]
    return pool


def test_tracing_leaves_output_unchanged_and_unwraps(tmp_path):
    pool = _sample_pool(tmp_path)
    main = dsmfuse.cli.main
    plain = [run.execute(main, r.argv)[:3] for r in pool]
    modules = (dsmfuse.cli, dsmfuse.scenario, dsmfuse.rules, dsmfuse.neutro,
               dsmfuse.mass.PreciseMass, dsmfuse.mass.ImpreciseMass,
               dsmfuse.mass.SubunitarySet, dsmfuse.lattice.Model)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install(dsmfuse)
    try:
        traced = [tracer.call(i, run.execute, main, r.argv)[:3] for i, r in enumerate(pool)]
    finally:
        tracer.remove()
    assert traced == plain
    assert [dict(vars(m)) for m in modules] == before
    assert not tracer.missing
    names = {tracer.spans.name_of(i).split(".", 1)[0] for i in range(len(tracer.spans))}
    assert names == set(tracing.LAYERS)


def test_traced_tuple_counts_match_the_generator(tmp_path):
    pool = workloads.build("imprecise_triple", 3, tmp_path, run.SCENARIOS)
    tracer = tracing.Tracer()
    tracer.install(dsmfuse)
    try:
        for i, r in enumerate(pool):
            assert tracer.call(i, run.execute, dsmfuse.cli.main, r.argv)[0] == 0
    finally:
        tracer.remove()
    metrics, _ = tracer.metrics(len(pool), 0, 1.0)
    walked = sum(r.tuples for r in pool if r.rule != "triple")
    paired = sum(r.tuples for r in pool if r.rule == "triple")
    assert metrics["rules.tuples"][0] * len(pool) == pytest.approx(walked)
    assert metrics["neutro.pairs"][0] * len(pool) == pytest.approx(paired)
    assert set(metrics) == {name for name, _ in tracing.METRICS}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_golden", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
