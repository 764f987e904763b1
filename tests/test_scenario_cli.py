import json
import os

import pytest

from dsmfuse import cli
from dsmfuse.errors import ParseError, ValidationError
from dsmfuse.lattice import Frame, Model
from dsmfuse.mass import ImpreciseMass, PreciseMass, parse_set
from dsmfuse.neutro import NeutrosophicTriple, TripleMass
from dsmfuse.scenario import (
    Scenario,
    Task,
    emit_scenario,
    from_json_dict,
    load_scenario,
    parse_element,
    parse_scenario,
    run,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

THREE_SOURCES = """
frame: th1 th2 th3
model: shafer
constraint: th3 = 0
source m1:
  th1 = 0.1
  th2 = 0.4
  th3 = 0.2
  th1 | th2 = 0.3
source m2:
  th1 = 0.5
  th2 = 0.1
  th3 = 0.3
  th1 | th2 = 0.1
task: compare
"""


# --- element expressions ---------------------------------------------------------

def test_expression_precedence_and_parens():
    f = Frame(("a", "b", "c"))
    x = parse_element(f, "a & b | c")
    assert x == (f.atom(1) & f.atom(2)) | f.atom(3)
    y = parse_element(f, "a & (b | c)")
    assert y == f.atom(1) & (f.atom(2) | f.atom(3))
    assert parse_element(f, "a ∩ b ∪ c") == x


def test_expression_errors_carry_positions():
    f = Frame(("a", "b"))
    with pytest.raises(ParseError) as err:
        parse_element(f, "a & ", line=7)
    assert "line 7" in str(err.value)
    with pytest.raises(ParseError):
        parse_element(f, "a & unknown")
    with pytest.raises(ParseError):
        parse_element(f, "(a | b")
    with pytest.raises(ParseError):
        parse_element(f, "a b")
    with pytest.raises(ParseError):
        parse_element(f, "")


# --- document parsing --------------------------------------------------------------

def test_parse_scenario_sections():
    s = parse_scenario(THREE_SOURCES)
    assert s.frame.labels == ("th1", "th2", "th3")
    assert s.model.kind == "shafer"
    assert len(s.model.constraints) == 1
    assert [name for name, _ in s.sources] == ["m1", "m2"]
    assert s.tasks == (Task("compare"),)
    assert s.source_kind == "PreciseMass"


def test_value_kind_inference():
    text = """
frame: a b
source p:
  a = 0.5
  b = 0.5
source i:
  a = [0.1,0.2]
  b = 0.8
source t:
  a = (0.5, 0.2, 0.3)
"""
    s = parse_scenario(text)
    kinds = {name: type(m).__name__ for name, m in s.sources}
    assert kinds == {"p": "PreciseMass", "i": "ImpreciseMass", "t": "TripleMass"}
    imprecise = dict(s.sources)["i"]
    assert imprecise.mass(s.frame.atom(2)).is_point


def test_open_interval_versus_triple():
    f = "frame: a b\nsource x:\n  a = (0.1,0.9)\n  b = 0.0\n"
    s = parse_scenario(f)
    assert type(dict(s.sources)["x"]).__name__ == "ImpreciseMass"
    t = "frame: a b\nsource x:\n  a = (0.1,0.8,0.1)\n"
    s2 = parse_scenario(t)
    assert type(dict(s2.sources)["x"]).__name__ == "TripleMass"


@pytest.mark.parametrize("text,needle", [
    ("frame: a b\nframe: a c\n", "twice"),
    ("frame: a b\nwhatever\n", "unrecognized"),
    ("frame: a b\nconstraint: a = 1\n", "= 0"),
    ("frame: a b\ntask:\n", "empty task"),
    ("frame: a b\ntask: dempster speed=11 bogus\n", "unknown task option"),
])
def test_document_parse_errors(text, needle):
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert needle in str(err.value)


@pytest.mark.parametrize("text,needle", [
    ("frame: a b\nmodel: fuzzy\n", "model kind"),
    ("frame: a b\nconstraint: a & b = 0\nsource m:\n  a = 1.0\n", "model: hybrid"),
    ("frame: a b\nsource m:\n  a = 1.0\nsource m:\n  b = 1.0\n", "duplicate source"),
    ("frame: a b\nsource m:\n  a = 0.4\n", "total"),
    ("frame: a b\nsource m:\n  a = 0.5\n  a = 0.5\n", "repeats"),
    ("frame: a b\nsource m:\n  a = (0.5, 0.2, 0.3)\n  b = 0.5\n", "mixes"),
    ("task: compare\n", "nonempty frame"),
])
def test_document_validation_problems(text, needle):
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert needle in str(err.value)


def test_parse_error_positions_in_documents():
    with pytest.raises(ParseError) as err:
        parse_scenario("frame: a b\nsource m:\n  a ++ = 1.0\n")
    assert "line 3" in str(err.value)


# --- round trips ----------------------------------------------------------------------

def build_triple_scenario():
    f = Frame(("th1", "th2"))
    m = TripleMass(f, {f.atom(1): NeutrosophicTriple.of(0.6, 0.1, 0.3),
                       f.atom(2): NeutrosophicTriple.of(0.8, 0.0, 0.2)})
    return Scenario(f, Model.free(f), (("s1", m), ("s2", m)),
                    (Task("fuse", "nnorm", (("norm", "min"),), True),))


def build_imprecise_scenario():
    f = Frame(("th1", "th2"))
    m1 = ImpreciseMass(f, {f.atom(1): parse_set("[0.1,0.2]u{0.3}"),
                           f.atom(2): parse_set("(0.4,0.6)u[0.7,0.8]")})
    m2 = ImpreciseMass(f, {f.atom(1): parse_set("[0.4,0.5]"),
                           f.atom(2): parse_set("[0,0.4]u{0.5,0.6}")})
    return Scenario(f, Model.hybrid(f, [f.atom(1) & f.atom(2)]),
                    (("m1", m1), ("m2", m2)), (Task("fuse", "dsm_hybrid"),))


@pytest.mark.parametrize("builder", [
    lambda: parse_scenario(THREE_SOURCES),
    build_triple_scenario,
    build_imprecise_scenario,
])
def test_emit_parse_round_trip(builder):
    s = builder()
    assert parse_scenario(emit_scenario(s)) == s


def test_emit_is_stable():
    s = parse_scenario(THREE_SOURCES)
    assert emit_scenario(parse_scenario(emit_scenario(s))) == emit_scenario(s)


def test_json_document_equivalent():
    doc = {
        "frame": ["th1", "th2", "th3"],
        "model": {"kind": "shafer", "constraints": ["th3"]},
        "sources": [
            {"name": "m1", "mass": {"th1": 0.1, "th2": 0.4, "th3": 0.2, "th1|th2": 0.3}},
            {"name": "m2", "mass": {"th1": 0.5, "th2": 0.1, "th3": 0.3, "th1|th2": 0.1}},
        ],
        "tasks": [{"compare": True}],
    }
    assert from_json_dict(doc) == parse_scenario(THREE_SOURCES)


def test_load_scenario_dispatches_on_content(tmp_path):
    p = tmp_path / "doc.txt"
    p.write_text(THREE_SOURCES)
    s1 = load_scenario(str(p))
    q = tmp_path / "doc.json"
    q.write_text(json.dumps({
        "frame": ["th1", "th2", "th3"],
        "model": {"kind": "shafer", "constraints": ["th3"]},
        "sources": [
            {"name": "m1", "mass": {"th1": 0.1, "th2": 0.4, "th3": 0.2, "th1|th2": 0.3}},
            {"name": "m2", "mass": {"th1": 0.5, "th2": 0.1, "th3": 0.3, "th1|th2": 0.1}},
        ],
        "tasks": [{"compare": True}],
    }))
    assert load_scenario(str(q)) == s1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ParseError):
        load_scenario(str(bad))


# --- execution --------------------------------------------------------------------------

def test_run_executes_the_task_list():
    s = parse_scenario(THREE_SOURCES)
    results = run(s)
    assert [r.rule for r in results] == [
        "dsm_classic", "dempster", "smets", "yager", "dubois_prade", "dsm_hybrid",
    ]
    assert all(r.error is None for r in results)


def test_run_rule_override_and_decide():
    s = parse_scenario(THREE_SOURCES)
    results = run(s, rule="dempster", decide=True)
    assert len(results) == 1
    r = results[0]
    assert r.report.rule == "dempster"
    assert r.decision is not None
    assert r.decision.choice.expr(style="ascii") == "th1"
    assert r.bel and r.pl and r.pignistic is not None


def test_run_captures_rule_errors_only_in_compare():
    text = """
frame: th1 th2 th3 th4
model: shafer
source m1:
  th1 = 0.6
  th3 = 0.4
source m2:
  th2 = 0.2
  th4 = 0.8
task: compare
"""
    s = parse_scenario(text)
    results = run(s)
    by_rule = {r.rule: r for r in results}
    assert by_rule["dempster"].error is not None
    assert by_rule["dsm_hybrid"].error is None
    from dsmfuse.errors import TotalConflict

    with pytest.raises(TotalConflict):
        run(s, rule="dempster")


def test_run_default_rule_depends_on_source_kind():
    s = parse_scenario("frame: a b\nsource m1:\n  a = 1.0\nsource m2:\n  b = 1.0\n")
    assert run(s)[0].rule == "dsm_hybrid"
    t = build_triple_scenario()
    bare = Scenario(t.frame, t.model, t.sources, ())
    assert run(bare)[0].report.rule.startswith("nnorm")


def test_run_rejects_unknown_rules_and_mixed_kinds():
    s = parse_scenario(THREE_SOURCES)
    with pytest.raises(ValidationError):
        run(s, rule="entropy_max")
    f = Frame(("a", "b"))
    mixed = Scenario(
        f, Model.free(f),
        (("p", PreciseMass(f, {f.atom(1): 1.0})),
         ("t", TripleMass(f, {f.atom(1): NeutrosophicTriple.of(1, 0, 0)}))),
        (),
    )
    with pytest.raises(ValidationError):
        run(mixed)


def test_imprecise_rule_ids_accept_plain_names():
    s = build_imprecise_scenario()
    a = run(s, rule="dsm_hybrid")[0]
    b = run(s, rule="dsm_hybrid_imprecise")[0]
    assert a.report.rule == b.report.rule == "dsm_hybrid_imprecise"


# --- command line -----------------------------------------------------------------------

def fixture(name):
    return os.path.join(SCENARIO_DIR, name)


def golden(name):
    with open(os.path.join(SCENARIO_DIR, "golden", name), encoding="utf-8") as fh:
        return fh.read()


ALL_FIXTURES = [
    "four_hypotheses_free.dsm",
    "four_hypotheses_shafer.dsm",
    "high_conflict.dsm",
    "imprecise_exclusive.dsm",
    "imprecise_two_experts.dsm",
    "three_sources.dsm",
    "triple_beliefs.dsm",
    "triple_exclusive.dsm",
    "vacuous_pignistic.dsm",
]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_reports_match_goldens(name, capsys):
    assert cli.main(["fuse", "--scenario", fixture(name)]) == 0
    out = capsys.readouterr().out
    assert out == golden(name.replace(".dsm", ".txt"))


def test_reports_are_deterministic(capsys):
    cli.main(["fuse", "--scenario", fixture("three_sources.dsm")])
    first = capsys.readouterr().out
    cli.main(["fuse", "--scenario", fixture("three_sources.dsm")])
    second = capsys.readouterr().out
    assert first == second


def test_json_report_shape(capsys):
    assert cli.main(["fuse", "--scenario", fixture("three_sources.dsm"),
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"]["kind"] == "shafer"
    rules = [t["rule"] for t in doc["tasks"]]
    assert rules[0] == "dsm_classic"
    dempster_entry = [t for t in doc["tasks"] if t["rule"] == "dempster"][0]
    assert dempster_entry["mass"]["th1"] == pytest.approx(0.6)
    assert dempster_entry["conflict"] == pytest.approx(0.65)
    assert json.dumps(doc) == json.dumps(json.loads(golden("three_sources.json")))


def test_precision_flag(capsys):
    cli.main(["fuse", "--scenario", fixture("three_sources.dsm"),
              "--rule", "dempster", "--precision", "3"])
    out = capsys.readouterr().out
    assert "0.314" in out and "0.3142" not in out
    cli.main(["fuse", "--scenario", fixture("three_sources.dsm"),
              "--rule", "dempster", "--precision", "full"])
    raw = capsys.readouterr().out
    assert "0.3142857142857143" in raw


def test_decide_flag_adds_sections(capsys):
    cli.main(["fuse", "--scenario", fixture("three_sources.dsm"),
              "--rule", "dsm_hybrid", "--decide"])
    out = capsys.readouterr().out
    assert "bel/pl:" in out
    assert "pignistic:" in out
    assert "decision: th1" in out


def test_compare_with_a_failing_rule_still_succeeds(capsys):
    assert cli.main(["fuse", "--scenario", fixture("four_hypotheses_shafer.dsm"),
                     "--compare"]) == 0
    out = capsys.readouterr().out
    assert "TotalConflict" in out


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.dsm"
    bad.write_text("frame: a b\nsource m:\n  a ++ = 1.0\n")
    assert cli.main(["fuse", "--scenario", str(bad)]) == 2

    unbalanced = tmp_path / "unbalanced.dsm"
    unbalanced.write_text("frame: a b\nsource m:\n  a = 0.9\n")
    assert cli.main(["fuse", "--scenario", str(unbalanced)]) == 2

    conflict = tmp_path / "conflict.dsm"
    conflict.write_text(
        "frame: a b\nmodel: shafer\nsource m1:\n  a = 1.0\nsource m2:\n  b = 1.0\n"
    )
    assert cli.main(["fuse", "--scenario", str(conflict), "--rule", "dempster"]) == 3

    wide = tmp_path / "wide.dsm"
    wide.write_text(
        "frame: a b c d e f\nsource m1:\n  a = 1.0\nsource m2:\n  a = 1.0\n"
    )
    assert cli.main(["fuse", "--scenario", str(wide)]) == 4
    assert cli.main(["fuse", "--scenario", str(wide), "--max-frame", "6"]) == 0
    capsys.readouterr()

    # JSON fields of the wrong type are validation errors, not tracebacks
    two = [{"mass": {"a": 1.0}}, {"mass": {"a": 1.0}}]
    for doc in ({"frame": ["a", "b"], "model": "shafer", "sources": two},
                {"frame": ["a", "b"], "sources": [{"mass": [1]}, two[1]]},
                {"frame": ["a", "b"], "sources": two, "tasks": [{"params": "x"}]},
                {"frame": "ab", "sources": two},
                {"frame": ["a", "b"], "sources": [{"mass": {"a": True}}, two[1]]}):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(doc))
        assert cli.main(["fuse", "--scenario", str(malformed)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_lattice_listings(capsys):
    assert cli.main(["lattice", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out == golden("free_n3.lattice.txt")
    assert "19 elements" in out

    assert cli.main(["lattice", "--model", fixture("vacuous_pignistic.dsm")]) == 0
    out = capsys.readouterr().out
    assert out == golden("vacuous_pignistic.lattice.txt")
    assert "10 elements" in out


def test_lattice_shafer_power_set(tmp_path, capsys):
    doc = tmp_path / "two.dsm"
    doc.write_text("frame: a b\nmodel: shafer\nsource m1:\n  a = 1.0\n")
    assert cli.main(["lattice", "--model", str(doc)]) == 0
    out = capsys.readouterr().out
    body = [line.strip() for line in out.splitlines()[1:-1]]
    assert [row.split()[1] for row in body] == ["{}", "a", "b", "a|b"]
    assert out.splitlines()[-1] == "4 elements"


def test_lattice_json_and_errors(capsys):
    assert cli.main(["lattice", "--n", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 19
    assert doc["elements"][0]["expression"] == "{}"
    assert cli.main(["lattice", "--n", "7"]) == 4
    capsys.readouterr()
    assert cli.main(["lattice"]) == 2
    capsys.readouterr()


def test_lattice_json_streams_the_dumps_format(capsys):
    # the listing is written incrementally (the n=6 lattice is huge), so
    # pin the stream to exactly what one json.dumps of the whole document
    # would have produced
    for argv in (["lattice", "--n", "2", "--format", "json"],
                 ["lattice", "--model", fixture("vacuous_pignistic.dsm"),
                  "--format", "json"]):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("extra", [[], ["--rule", "dsm_hybrid"], ["--compare"]],
                         ids=["tasks", "rule", "compare"])
def test_s3_flag_changes_the_report(extra, capsys):
    text = (
        "frame: th1 th2 th3\nmodel: hybrid\nconstraint: th1 & th2 = 0\n"
        "source m1:\n  th1 & th2 = 0.5\n  th3 = 0.5\n"
        "source m2:\n  th3 = 1.0\ntask: dsm_hybrid\n"
    )
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".dsm", delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        cli.main(["fuse", "--scenario", path, *extra])
        components = capsys.readouterr().out
        cli.main(["fuse", "--scenario", path, *extra, "--s3", "union"])
        union = capsys.readouterr().out
        assert components != union
        assert "th1|th2|th3" in components
    finally:
        os.unlink(path)
