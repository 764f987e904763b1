import inspect
import io
import json
import os
import re
import string
import subprocess
import sys
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsmfuse import cli, neutro, rules
from dsmfuse.decision import DecisionResult, PignisticDistribution
from dsmfuse.errors import DsmError, ParseError, TotalConflict, ValidationError
from dsmfuse.lattice import Frame, LatticeElement, Model, dsm_cardinality
from dsmfuse.mass import ImpreciseMass, PreciseMass, format_set, parse_set
from dsmfuse.neutro import NeutrosophicTriple, TripleMass
from dsmfuse.rules import FusionReport
from dsmfuse.scenario import (
    COMPARE_RULES,
    MAX_NESTING,
    Scenario,
    Task,
    TaskResult,
    _dispatch,
    _RULES,
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
    # nesting is capped at MAX_NESTING open parentheses
    assert parse_element(f, "(" * MAX_NESTING + "a" + ")" * MAX_NESTING) == f.atom(1)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_element(f, "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1))


def test_max_nesting_needs_no_call_stack_per_level():
    """Open parentheses wait on a list, not on the call stack: the deepest
    accepted expression parses with only 50 frames to spare."""
    f = Frame(("a", "b"))
    text = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        element = parse_element(f, text)
    finally:
        sys.setrecursionlimit(limit)
    assert element == f.atom(1)


@pytest.mark.parametrize("text,message,column", [
    ("a & ) $", "bad character '$' in expression", 7),
    ("a b " + "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1),
     f"parentheses nested deeper than {MAX_NESTING}", 5 + MAX_NESTING),
    ("zz & b $", "bad character '$' in expression", 8),
], ids=["bad_character_after_a_grammar_error", "deep_nesting_after_a_grammar_error",
        "bad_character_after_an_unknown_label"])
def test_character_errors_outrank_grammar_errors(text, message, column):
    """A bad character or too deep a nesting anywhere in the text is reported
    before an earlier grammar error, as the reference tokenizer does."""
    with pytest.raises(ParseError) as err:
        parse_element(ORACLE_FRAME, text, line=4)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"{message} (line 4, col {column})", 4, column)
    assert _parse_outcome(ref_parse_element, text) == ("error", str(err.value), 4, column)


_REF_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def ref_parse_element(frame, text, line=None):
    """The expression parser as first written: a per-character tokenizer and
    a recursive descent that builds one LatticeElement per operator."""
    tokens = ref_tokenize(text, line)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else (None, len(text))

    def take():
        tok = peek()
        pos[0] += 1
        return tok

    def factor():
        tok, col = take()
        if tok == "(":
            x = expr()
            closing, ccol = take()
            if closing != ")":
                raise ParseError("expected closing parenthesis", line, ccol + 1)
            return x
        if tok in ("&", "|", ")", None):
            raise ParseError(f"expected a hypothesis label, got {tok!r}", line, col + 1)
        try:
            return frame.atom_by_label(tok)
        except DsmError:
            raise ParseError(f"unknown hypothesis {tok!r}", line, col + 1) from None

    def term():
        x = factor()
        while peek()[0] == "&":
            take()
            x = x & factor()
        return x

    def expr():
        x = term()
        while peek()[0] == "|":
            take()
            x = x | term()
        return x

    out = expr()
    tok, col = peek()
    if tok is not None:
        raise ParseError(f"unexpected {tok!r}", line, col + 1)
    return out


def ref_tokenize(text, line):
    tokens = []
    i = depth = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "&|()∩∪":
            tokens.append(({"∩": "&", "∪": "|"}.get(ch, ch), i))
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", line, i + 1)
            i += 1
        else:
            m = _REF_LABEL_RE.match(text, i)
            if not m:
                raise ParseError(f"bad character {ch!r} in expression", line, i + 1)
            tokens.append((m.group(0), i))
            i = m.end()
    if not tokens:
        raise ParseError("empty expression", line)
    return tokens


ORACLE_FRAME = Frame(("a", "b", "th1", "_x2"))
EXPRESSION_PIECES = ["a", "b", "th1", "_x2", "zz", "th", "a1", "&", "|", "(", ")", "∩", "∪",
                     " ", "  ", "\t", "\u00a0", "1", "é", "!"]


def _labelled(children):
    return st.one_of(
        st.tuples(children, st.sampled_from([" & ", "&", " | ", "|", " ∩ ", "∪"]), children)
        .map("".join),
        children.map(lambda x: f"({x})"),
    )


VALID_EXPRESSIONS = st.recursive(st.sampled_from(["a", "b", "th1", "_x2", "zz"]), _labelled,
                                 max_leaves=8)


def _insert(args):
    text, piece, k = args
    k %= len(text) + 1
    return text[:k] + piece + text[k:]


def _parse_outcome(parser, text):
    try:
        return "element", parser(ORACLE_FRAME, text, line=4)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(EXPRESSION_PIECES), max_size=12).map("".join),
    st.lists(st.sampled_from(EXPRESSION_PIECES), max_size=8).map(" ".join),
    VALID_EXPRESSIONS,
    st.tuples(VALID_EXPRESSIONS, st.sampled_from(EXPRESSION_PIECES), st.integers(0, 99)).map(_insert),
    st.tuples(st.integers(95, 106), VALID_EXPRESSIONS, st.integers(95, 106))
    .map(lambda t: "(" * t[0] + t[1] + ")" * t[2]),
))
def test_expression_parser_matches_the_reference(text):
    # the same element, or the same message at the same line and column
    assert _parse_outcome(parse_element, text) == _parse_outcome(ref_parse_element, text)


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
    # two open intervals joined by "u" have two commas too, but are a set
    for joiner in ("u", " U ", "∪"):
        u = f"frame: a b\nsource x:\n  a = (0.1,0.2){joiner}(0.3,0.4)\n  b = [0.6,0.7]\n"
        a = dict(parse_scenario(u).sources)["x"].mass(parse_element(Frame(("a", "b")), "a"))
        assert a == parse_set("(0.1,0.2)u(0.3,0.4)")
    with pytest.raises(ParseError, match=r"bad triple '\(0.1, x, 0.3\)'"):
        parse_scenario("frame: a b\nsource x:\n  a = (0.1, x, 0.3)\n")


@pytest.mark.parametrize("text,needle", [
    ("frame: a b\nframe: a c\n", "twice"),
    ("frame: a b\nwhatever\n", "unrecognized"),
    ("frame: a b\nconstraint: a = 1\n", "= 0"),
    ("frame: a b\ntask:\n", "empty task"),
    ("frame: a b\ntask: dempster speed=11 bogus\n", "unknown task option"),
    ("frame: a b\ntask: tnorm nrom=min\n", "unknown task option 'nrom=min'"),
    ("frame: a b\ntask: dempster norm=min\n", "rule 'dempster' does not read the task option 'norm'"),
    ("frame: a b\ntask: dempster s3=union\n", "rule 'dempster' does not read the task option 's3'"),
    ("frame: a b\ntask: compare norm=min\n", "rule 'compare' does not read the task option 'norm'"),
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
    ("frame: a b\nsource ::x:\n  a = 1\nsource m2:\n  a = 1\n", "source name"),
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


def build_open_union_scenario():
    f = Frame(("th1", "th2"))
    m = ImpreciseMass(f, {f.atom(1): parse_set("(0.1,0.2)u(0.3,0.4)"),
                          f.atom(2): parse_set("[0.6,0.7]")})
    return Scenario(f, Model.free(f), (("m1", m), ("m2", m)), (Task("fuse", "dsm_classic"),))


def build_unusual_names_scenario():
    # source names the text form writes and reads back verbatim
    names = ["m 1", "a:b", "x=y", "a\tb", "(m)", "é", "m1|"]
    return from_json_dict({"frame": ["th_1", "x"],
                           "sources": [{"name": name, "mass": {"x": 1.0}} for name in names]})


@pytest.mark.parametrize("builder", [
    lambda: parse_scenario(THREE_SOURCES),
    build_triple_scenario,
    build_imprecise_scenario,
    build_open_union_scenario,
    build_unusual_names_scenario,
])
def test_emit_parse_round_trip(builder):
    s = builder()
    assert parse_scenario(emit_scenario(s)) == s


def test_emit_is_stable():
    s = parse_scenario(THREE_SOURCES)
    assert emit_scenario(parse_scenario(emit_scenario(s))) == emit_scenario(s)


KEYWORD_SOURCES = """
frame: {kw} x y
model: hybrid
constraint: {kw} & x & y = 0
source m1:
  {kw} = 0.3
  x = 0.2
  {kw} | x = 0.2
  {kw}&x = 0.1
  {kw} ∪ y = 0.2
source m2:
  {kw} ∩ x = 0.5
  {kw}|x = 0.4
  y = 0.1
task: dsm_hybrid
"""


def source_masses(s):
    return [(name, [(el.bits, v) for el, v in m.items()]) for name, m in s.sources]


@pytest.mark.parametrize("keyword", ["frame", "model", "constraint", "source", "task"])
def test_directive_keywords_are_labels_on_focal_lines(keyword, tmp_path, capsys):
    """A keyword followed by "=", "&", "|", "∩" or "∪" starts a focal line."""
    text = KEYWORD_SOURCES.format(kw=keyword)
    s = parse_scenario(text)
    plain = parse_scenario(KEYWORD_SOURCES.format(kw="w"))
    assert s.frame.labels == (keyword, "x", "y")
    assert source_masses(s) == source_masses(plain)
    assert [c.bits for c in s.model.constraints] == [c.bits for c in plain.model.constraints]
    assert parse_scenario(emit_scenario(s)) == s

    doc = {"frame": [keyword, "a"],
           "sources": [{"name": keyword, "mass": {keyword: 0.6, "a": 0.4}},
                       {"name": "m2", "mass": {f"{keyword}|a": 0.5, f"{keyword}&a": 0.5}}]}
    from_json = from_json_dict(doc)
    assert parse_scenario(emit_scenario(from_json)) == from_json

    path = tmp_path / "keywords.dsm"
    path.write_text(text)
    assert cli.main(["fuse", "--scenario", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_forty_sources_fuse_to_the_closed_form(tmp_path, capsys):
    """2^40 focal tuples; the fold keeps two states per source, and the
    exact sums give th1|th2 the lone all-(th1|th2) tuple's 2^-40."""
    text = "frame: th1 th2\n" + "".join(
        f"source m{i}:\n  th1 = 0.5\n  th1 | th2 = 0.5\n" for i in range(40))
    path = tmp_path / "forty.dsm"
    path.write_text(text + "task: dsm_classic\n")
    argv = ["fuse", "--scenario", str(path), "--format", "json", "--precision", "full"]
    assert cli.main(argv) == 0
    (task,) = json.loads(capsys.readouterr().out)["tasks"]
    assert task["mass"] == {"th1": 1 - 2 ** -40, "th1|th2": 2 ** -40}
    assert task["conflict"] == 0.0


def two_source_doc(frame, name):
    return {"frame": frame, "sources": [{"name": name, "mass": {frame[-1]: 1.0}},
                                        {"mass": {frame[-1]: 1.0}}]}


@pytest.mark.parametrize("frame,name", [
    (["a", "b"], "m#1"), (["a", "b"], "x:"), (["a", "b"], " lead"), (["a", "b"], "lag "),
    (["a", "b"], "n\u2028x"), (["a", "b"], "n\nx"), (["a", "b"], "n\x85x"), (["a", "b"], ":x"),
    (["a", "b"], "=x"), (["a", "b"], "|x"), (["a", "b"], ""),
    (["a b", "c"], "m1"), (["a,b", "c"], "m1"), (["a#", "c"], "m1"), (["a\u2028b", "c"], "m1"),
    (["c&d", "a", "b"], "m1"), (["b|c", "a"], "m1"), (["(a)", "b"], "m1"), (["a∩b", "c"], "m1"),
    (["a∪b", "c"], "m1"), (["{}", "a"], "m1"), (["∅", "a"], "m1"),
    (["é", "a"], "m1"), (["b-1", "a"], "m1"), (['q"x', "a"], "m1"), (["1a", "b"], "m1"),
], ids=["hash", "trailing_colon", "leading_space", "trailing_space", "u2028", "newline", "nel",
        "leading_colon", "leading_equals", "leading_bar", "empty", "label_space", "label_comma",
        "label_hash", "label_u2028", "label_meet", "label_join", "label_parens", "label_cap",
        "label_cup", "label_braces", "label_empty_set", "label_non_ascii", "label_hyphen",
        "label_quote", "label_leading_digit"])
def test_names_and_labels_that_would_read_back_changed_are_refused(frame, name, tmp_path,
                                                                  capsys):
    """emit_scenario writes names verbatim, so any that parse_scenario
    would read back as something else are refused; a label no expression
    can name is refused too."""
    doc = two_source_doc(frame, name)
    with pytest.raises(ValidationError):
        from_json_dict(doc)
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["fuse", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# ASCII letters, digits and _, which a label may hold, and characters it
# may not: a hyphen, a quote, non-ASCII letters, the operators and separators
LABEL_CHARS = string.ascii_letters + string.digits + '_-"éθ&|()∩∪{}∅ ,#'


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(st.sampled_from(LABEL_CHARS), max_size=4), max_size=4))
@example(["é", "a"])
def test_every_label_a_frame_takes_is_one_an_expression_names(labels):
    try:
        frame = from_json_dict({"frame": labels}).frame
    except ValidationError:
        return
    for label in labels:
        assert parse_element(frame, label) == frame.atom_by_label(label)


def test_a_text_frame_label_that_prints_as_a_meet_is_refused(tmp_path, capsys):
    """With a label c&d, decision rows such as a&c&d would read as meets of
    other labels."""
    path = tmp_path / "meet_label.dsm"
    path.write_text("frame: a b c&d\nsource m1:\n  a = 0.6\n  b = 0.4\n"
                    "source m2:\n  a = 0.5\n  b = 0.5\ntask: dsm_classic\n")
    assert cli.main(["fuse", "--scenario", str(path), "--decide"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: hypothesis label 'c&d' must be a letter or _ followed by"
                            " letters, digits or _\n")


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


REF_S3_VALUES = {"components": rules.S3_COMPONENTS, "union": rules.S3_UNION}
# the rules _dispatch hands each task option to ("compare" via dsm_hybrid)
REF_OPTION_READERS = {
    "norm": {"tnorm", "tconorm", "nnorm", "nnorm_fusion", "nconorm", "nconorm_fusion"},
    "s3": {"dsm_hybrid", "dsm_hybrid_imprecise", "dsmh_improved", "tnorm", "nnorm",
           "nnorm_fusion", "compare"},
}


# every rule id the README lists, aliases included
REF_RULE_IDS = {"dsm_classic", "dsm_hybrid", "dempster", "smets", "yager", "dubois_prade",
                "disjunctive", "dsmc_improved", "dsmh_improved", "disjunctive_improved", "tnorm",
                "tconorm", "nnorm", "nconorm", "dsm_classic_imprecise", "dsm_hybrid_imprecise",
                "nnorm_fusion", "nconorm_fusion"}


def ref_refusal(rid, kind):
    """The refusal of rule rid on sources of kind: unknown exactly when rid
    names no rule."""
    if rid not in REF_RULE_IDS:
        return ValidationError([f"unknown rule {rid!r}"])
    return ValidationError([f"rule {rid!r} does not take {kind} sources"])


def ref_dispatch(scenario, task, rid):
    """The dispatch as first written: a branch per source kind and a lambda
    table for precise sources."""
    sources = [m for _, m in scenario.sources]
    kind = scenario.source_kind
    if kind == "mixed":
        raise ValidationError(["sources mix mass kinds; fuse like with like"])
    model = scenario.model
    s3 = REF_S3_VALUES.get(task.param("s3", "components"))
    if s3 is None:
        raise ValidationError([f"unknown s3 target {task.param('s3')!r}"])
    norm = task.param("norm", "algebraic")

    if kind == "TripleMass":
        if rid in ("nnorm", "nnorm_fusion"):
            return neutro.nnorm_fusion(norm, sources, model=model, s3_target=s3)
        if rid in ("nconorm", "nconorm_fusion"):
            return neutro.nconorm_fusion(norm, sources, model=model)
        raise ref_refusal(rid, "triple")

    if kind == "ImpreciseMass":
        if rid in ("dsm_classic", "dsm_classic_imprecise"):
            return rules.dsm_classic(sources)
        if rid in ("dsm_hybrid", "dsm_hybrid_imprecise"):
            return rules.dsm_hybrid(model, sources, s3_target=s3)
        raise ref_refusal(rid, "imprecise")

    table = {
        "dsm_classic": lambda: rules.dsm_classic(sources),
        "dsm_hybrid": lambda: rules.dsm_hybrid(model, sources, s3_target=s3),
        "dempster": lambda: rules.dempster(model, sources),
        "smets": lambda: rules.smets(model, sources),
        "yager": lambda: rules.yager(model, sources),
        "dubois_prade": lambda: rules.dubois_prade(model, sources),
        "disjunctive": lambda: rules.disjunctive(sources, model=model),
        "dsmc_improved": lambda: rules.dsmc_improved(sources, model=model),
        "dsmh_improved": lambda: rules.dsmh_improved(model, sources, s3_target=s3),
        "disjunctive_improved": lambda: rules.disjunctive_improved(sources, model=model),
        "tnorm": lambda: rules.tnorm_fusion(norm, sources, model=model, s3_target=s3),
        "tconorm": lambda: rules.tconorm_fusion(norm, sources, model=model),
    }
    if rid not in table:
        raise ref_refusal(rid, "precise")
    return table[rid]()


def ref_option_check(task, rid, lineno):
    """The parse-time option check as first written."""
    for key, _ in task.params:
        if rid not in REF_OPTION_READERS[key]:
            raise ParseError(f"rule {rid!r} does not read the task option {key!r}", lineno)


def dispatch_outcome(call):
    try:
        r = call()
    except DsmError as exc:
        return type(exc), str(exc)
    return r.rule, r.mass.items(), r.conflict, r.warnings


def result_outcome(r):
    if r.error is not None:
        return type(r.error), str(r.error)
    return r.report.rule, r.report.mass.items(), r.report.conflict, r.report.warnings


def dispatch_cases():
    """(scenario, task) per source kind (precise, imprecise, triple and
    mixed, under a hybrid model), s3 value and norm value, absent ones
    included, for every rule id in the README, the aliases, compare and an
    unknown id."""
    precise = parse_scenario("frame: th1 th2\nmodel: hybrid\nconstraint: th1 & th2 = 0\n"
                             "source m1:\n  th1 & th2 = 0.5\n  th2 = 0.5\n"
                             "source m2:\n  th1 = 0.6\n  th1 | th2 = 0.4\n")
    triples = build_triple_scenario().sources
    kinds = [precise.sources, build_imprecise_scenario().sources, triples,
             (precise.sources[0], triples[0])]
    rids = ["dsm_classic", "dsm_hybrid", "dempster", "smets", "yager", "dubois_prade",
            "disjunctive", "dsmc_improved", "dsmh_improved", "disjunctive_improved", "tnorm",
            "tconorm", "nnorm", "nconorm", "dsm_classic_imprecise", "dsm_hybrid_imprecise",
            "nnorm_fusion", "nconorm_fusion", "compare", "entropy_max"]
    for sources in kinds:
        for s3 in (None, "components", "union", "bogus"):
            for norm in (None, "algebraic", "min", "max", "bogus"):
                params = tuple((k, v) for k, v in (("norm", norm), ("s3", s3)) if v)
                for rid in rids:
                    task = Task("compare", None, params) if rid == "compare" \
                        else Task("fuse", rid, params)
                    yield Scenario(precise.frame, precise.model, sources, (task,)), task


def test_dispatch_matches_the_reference():
    for scenario, task in dispatch_cases():
        if task.kind == "compare":
            got = [result_outcome(r) for r in run(scenario)]
            want = [dispatch_outcome(lambda: ref_dispatch(
                scenario, Task("fuse", rid, task.params), rid)) for rid in COMPARE_RULES]
        else:
            got = dispatch_outcome(lambda: _dispatch(scenario, task, task.rule))
            want = dispatch_outcome(lambda: ref_dispatch(scenario, task, task.rule))
        assert got == want, task


def test_option_check_matches_the_reference():
    for scenario, task in dispatch_cases():
        text = emit_scenario(scenario)
        try:
            ref_option_check(task, task.rule or "compare", text.count("\n"))
            want = None
        except ParseError as exc:
            want = str(exc)
        try:
            parse_scenario(text)
            got = None
        except ParseError as exc:
            got = str(exc)
        assert got == want, task


def test_readme_lists_the_rule_table():
    with open(os.path.join(SCENARIO_DIR, os.pardir, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    ids = readme.split("Rule ids accepted by `--rule` and `task:` lines:")[1]
    ids = ids.split("for triple sources.")[0]
    assert set(re.findall(r"`(\w+)`", ids)) == set(_RULES)
    lineup = re.search(r"^\| `--compare` \|.*side by side:(.*)\|$", readme, re.M).group(1)
    assert tuple(re.findall(r"`(\w+)`", lineup)) == COMPARE_RULES


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


def ref_json_value(value, precision):
    if isinstance(value, float):
        return value if precision is None else round(value, precision)
    if isinstance(value, NeutrosophicTriple):
        return [ref_json_value(v, precision) for v in value.as_points()]
    return format_set(value, precision)


def ref_render_json(scenario, results, precision):
    """The JSON report as first written: one document through json.dumps."""
    def rows(items):
        return {el.expr(style="ascii"): ref_json_value(v, precision) for el, v in items}

    tasks = []
    for r in results:
        entry = {"rule": r.report.rule if r.report is not None else r.rule}
        if r.error is not None:
            entry["error"] = f"{type(r.error).__name__}: {r.error}"
            tasks.append(entry)
            continue
        entry["mass"] = rows(r.report.mass.items())
        entry["conflict"] = ref_json_value(r.report.conflict, precision)
        entry["warnings"] = list(r.report.warnings)
        if r.bel is not None:
            entry["bel"] = rows(r.bel.items())
            entry["pl"] = rows(r.pl.items())
        if r.pignistic is not None:
            entry["pignistic"] = rows(r.pignistic.items())
            entry["warnings"] += list(r.pignistic.warnings)
        if r.decision is not None:
            entry["decision"] = {
                "choice": r.decision.choice.expr(style="ascii"),
                "score": ref_json_value(r.decision.score, precision),
                "tie": r.decision.tie,
            }
        tasks.append(entry)
    doc = {
        "frame": list(scenario.frame.labels),
        "model": {"kind": scenario.model.kind,
                  "constraints": [c.expr(style="ascii") for c in scenario.model.constraints]},
        "tasks": tasks,
    }
    return json.dumps(doc, indent=2) + "\n"


@st.composite
def fuse_reports(draw):
    """A scenario and its task results: identifier labels, escaped rule
    names and messages, empty maps, error entries, decisions, set and
    triple values, NaN and infinite floats."""
    labels = draw(st.lists(st.sampled_from(["a", "_", "b_1", "Th2", "task"]),
                           min_size=1, max_size=3, unique=True))
    frame = Frame(tuple(labels))
    kind = draw(st.sampled_from(["free", "shafer", "hybrid"]))
    if frame.n < 2 and kind == "hybrid":
        kind = "free"
    model = Model(frame, kind, [frame.atom(1) & frame.atom(2)] if kind == "hybrid" else [])
    elements = st.integers(0, (1 << frame.part_count) - 1).map(
        lambda bits: LatticeElement(frame, bits))
    floats = st.one_of(st.floats(), st.floats(0, 1),
                       st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300]))
    values = st.one_of(
        floats,
        st.sampled_from(["{0.25}", "[0.1,0.2]u{0.3}", "(0.1,0.9)", "{0.123456789}"]).map(parse_set),
        st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
        .map(lambda t: NeutrosophicTriple.of(*t)),
    )
    texts = st.lists(st.text(st.sampled_from('aé"\\\n\t€ '), max_size=6), max_size=2)

    def table(value_strategy):
        return dict(draw(st.lists(st.tuples(elements, value_strategy), max_size=5)))

    results = []
    for _ in range(draw(st.integers(0, 3))):
        rule = draw(st.sampled_from(["dsm_hybrid", "dempster", 'r"é']))
        task = Task("fuse", rule)
        if draw(st.booleans()):
            results.append(TaskResult(task, rule, error=TotalConflict(" ".join(draw(texts)))))
            continue
        report = FusionReport(rule, model, table(values), draw(values), tuple(draw(texts)))
        result = TaskResult(task, rule, report=report)
        if draw(st.booleans()):
            result.bel, result.pl = table(floats), table(floats)
            # a pignistic table's rows are alive bitsets of the model, as gpt makes them
            bits = draw(st.lists(st.sampled_from(list(model.alive_bits())), max_size=5, unique=True))
            probs = draw(st.lists(floats, min_size=len(bits), max_size=len(bits)))
            result.pignistic = PignisticDistribution(model, bits, probs, tuple(draw(texts)))
            result.decision = DecisionResult(draw(elements), draw(floats), draw(st.booleans()), ())
        results.append(result)
    return Scenario(frame, model, (), ()), results


@settings(max_examples=300, deadline=None)
@given(fuse_reports(), st.one_of(st.none(), st.integers(0, 8)))
def test_json_report_writer_matches_json_dumps(report, precision):
    scenario, results = report
    assert cli._render_json(scenario, results, precision) == \
        ref_render_json(scenario, results, precision)


# values a column keyed on the float rather than its bits would print wrong
EDGE_FLOATS = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 5e-324, 1e300]


@st.composite
def float_columns(draw):
    """An array("d") column whose rows repeat a few drawn values."""
    pool = draw(st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), min_size=1, max_size=8))
    return array("d", draw(st.lists(st.sampled_from(pool), max_size=40)))


@given(float_columns())
@example(array("d"))
@example(array("d", [-0.0]))
def test_distinct_floats_prints_each_row_as_its_formatter(values):
    for floats in (cli._json_floats, cli._table_floats):
        for precision in (None, 0, 6):
            assert list(cli._distinct_floats(values, floats, precision)) == \
                list(floats(values, precision))


def test_precision_flag(capsys):
    cli.main(["fuse", "--scenario", fixture("three_sources.dsm"),
              "--rule", "dempster", "--precision", "3"])
    out = capsys.readouterr().out
    assert "0.314" in out and "0.3142" not in out
    cli.main(["fuse", "--scenario", fixture("three_sources.dsm"),
              "--rule", "dempster", "--precision", "full"])
    raw = capsys.readouterr().out
    assert "0.3142857142857143" in raw


def test_precision_is_bounded_by_the_longest_exact_double(capsys):
    argv = ["fuse", "--scenario", fixture("three_sources.dsm"), "--precision"]
    assert cli.main(argv + ["1074"]) == 0
    assert "0." + "0" * 1074 in capsys.readouterr().out
    for value in ("1075", "99999999999"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [value])
        assert exc.value.code == 2
        assert "precision must be between 0 and 1074" in capsys.readouterr().err


def test_precision_is_an_integer_or_full(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fuse", "--scenario", fixture("three_sources.dsm"), "--precision", "abc"])
    assert exc.value.code == 2
    assert "precision is an integer or 'full'" in capsys.readouterr().err


def test_full_precision_tables_print_decide_values_by_repr(capsys):
    argv = ["fuse", "--scenario", fixture("three_sources.dsm"), "--rule", "dempster",
            "--decide", "--precision", "full"]
    assert cli.main(argv) == 0
    sections, section = {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  "):
            sections.setdefault(section, []).append(line.split())
        else:
            section = line
    assert cli.main(argv + ["--format", "json"]) == 0
    task, = json.loads(capsys.readouterr().out)["tasks"]
    assert sections["bel/pl:"] == [[k, repr(v), repr(task["pl"][k])] for k, v in task["bel"].items()]
    assert sections["pignistic:"] == [[k, repr(v)] for k, v in task["pignistic"].items()]
    assert any(len(v) > 8 for _, v in sections["pignistic:"])  # more digits than precision 6


TWO_SOURCES = "source m1:\n  a = 1\nsource m2:\n  b = 1\n"


@pytest.mark.parametrize("command,name,text,message", [
    ("fuse", "twice.dsm", "frame: a b\nmodel: shafer\nmodel: free\n" + TWO_SOURCES,
     "model given twice (line 3)"),
    ("fuse", "unnamed.dsm", "frame: a b\nsource :\n  a = 1\n", "source needs a name (line 2)"),
    ("fuse", "labels.dsm", "frame: a a\n" + TWO_SOURCES, "duplicate hypothesis label 'a'"),
    ("fuse", "empty.dsm", "frame: a b\nsource m1:\nsource m2:\n  a = 1\n",
     "source 'm1' has no focal elements"),
    ("fuse", "array.json", "[1, 2]", "JSON scenario must be an object"),
    ("lattice --n 3", "four.dsm", "frame: a b c d\n" + TWO_SOURCES,
     "--n 3 disagrees with the scenario frame (4)"),
])
def test_scenario_errors_print_one_error_line(command, name, text, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    flag = "--model" if command.startswith("lattice") else "--scenario"
    assert cli.main([*command.split(), flag, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_many_sources_fuse(tmp_path, capsys):
    doc = tmp_path / "many.dsm"
    doc.write_text("frame: a b\n" + "".join(f"source m{i}:\n  a | b = 1.0\n" for i in range(1200)))
    assert cli.main(["fuse", "--scenario", str(doc)]) == 0
    out = capsys.readouterr().out
    assert out.split("mass:\n")[1].split("conflict:")[0] == "  a|b      1.000000\n"


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


@pytest.mark.parametrize("precision", ["full", "0"])
def test_compare_columns_fit_their_cells(precision, capsys):
    assert cli.main(["fuse", "--scenario", fixture("three_sources.dsm"),
                     "--precision", precision]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("element "))
    end = next(i for i, line in enumerate(lines) if line.startswith("conflict "))
    assert len({len(line) for line in lines[start:end + 1]}) == 1


def test_a_compare_table_is_drawn_per_compare_task(tmp_path, capsys):
    def report(path, *extra):
        assert cli.main(["fuse", "--scenario", str(path), *extra]) == 0
        return capsys.readouterr().out

    # a task's rule block is what --rule prints after the frame and model lines
    blocks = {rid: report(fixture("three_sources.dsm"), "--rule", rid).split("\n", 2)[2]
              for rid in COMPARE_RULES}
    body = THREE_SOURCES.replace("task: compare\n", "")
    lineup = tmp_path / "lineup.dsm"
    lineup.write_text(body + "".join(f"task: {rid}\n" for rid in COMPARE_RULES))
    out = report(lineup)
    assert out.count("\nrule: ") == 6 and "element" not in out
    assert out == "frame: th1 th2 th3\nmodel: shafer [th3 = 0]\n" + "".join(blocks.values())

    both = tmp_path / "both.dsm"
    both.write_text(body + "task: compare\ntask: dempster\n")
    assert report(both) == golden("three_sources.txt") + blocks["dempster"]


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
                {"frame": ["a", "b"], "sources": [{"mass": {"a": True}}, two[1]]},
                {"frame": ["a", "b"], "sources": [{"mass": {"a": 10 ** 400}}, two[1]]},
                {"frame": ["a", "b"], "sources": two,
                 "tasks": [{"rule": "tnorm", "params": {"nrom": "min"}}]},
                {"frame": ["a", "b"], "sources": two,
                 "tasks": [{"rule": "yager", "params": {"s3": "union"}}]}):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(doc))
        assert cli.main(["fuse", "--scenario", str(malformed)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # an integer too long for the interpreter to read is a parse error
    malformed.write_text('{"frame": ["a"], "sources": [{"mass": {"a": 1' + "0" * 5000 + "}}]}")
    assert cli.main(["fuse", "--scenario", str(malformed)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

    # unreadable files, nesting past the parsers' depth and a negative frame
    # size are parse errors with a one-line message
    undecodable = tmp_path / "latin1.dsm"
    undecodable.write_bytes(b"frame: \xe9 b\n")
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 3000 + "]" * 3000)
    deep_parens = tmp_path / "deep.dsm"
    deep_parens.write_text("frame: a b\nsource m:\n  " + "(" * 2000 + "a" + ")" * 2000 + " = 1.0\n")
    for argv in (["fuse", "--scenario", str(tmp_path / "missing.dsm")],
                 ["fuse", "--scenario", str(tmp_path)],
                 ["fuse", "--scenario", str(undecodable)],
                 ["fuse", "--scenario", str(deep_json)],
                 ["fuse", "--scenario", str(deep_parens)],
                 ["lattice", "--n", "-1"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert cli.main(["lattice", "--n", "0"]) == 0
    assert capsys.readouterr().out.endswith("1 elements\n")


@pytest.mark.parametrize("text,message", [
    ("frame: a b\nsource m1:\n  a = 0.5\n  b = 0.5\nsource m2:\n  a = 0.5\n  b = 0.5\n"
     "task: tnorm norm=bounded\n",
     "DegenerateNormalization: tnorm[bounded]: every weighted product vanished"),
    ("frame: a b\nmodel: shafer\nsource m1:\n  a = 1\nsource m2:\n  b = 1\n"
     "task: dsmc_improved\n",
     "DegenerateNormalization: dsmc_improved: every weighted product vanished"),
    ("frame: a b\nsource m1:\n  a = (0.6, 0.1, 0.3)\ntask: nnorm\n",
     "FewerThanTwoSources: nnorm_fusion needs at least two sources"),
    ("frame: a b\nsource m1:\n  a = (0.6, 0.1, 0.3)\ntask: nconorm\n",
     "FewerThanTwoSources: nconorm_fusion needs at least two sources"),
    ("frame: a b\nsource m1:\n  a = 1\ntask: tnorm\n",
     "FewerThanTwoSources: tnorm needs at least two sources"),
], ids=["tnorm_bounded", "dsmc_improved", "nnorm_one_source", "nconorm_one_source",
        "tnorm_one_source"])
def test_fusion_errors_exit_3_with_one_line(text, message, tmp_path, capsys):
    path = tmp_path / "refused.dsm"
    path.write_text(text)
    assert cli.main(["fuse", "--scenario", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_scenario_without_sources_is_refused_as_one_source_is(tmp_path, capsys):
    """No sources are fewer than two, not a mix of kinds: the same exit 3
    and message as one source, and under --compare the same note per rule."""
    outcomes = []
    for text in ("frame: a b\n", "frame: a b\nsource m1:\n  a = 1\n"):
        path = tmp_path / "few.dsm"
        path.write_text(text)
        outcomes.append([(cli.main(["fuse", "--scenario", str(path), *extra]), capsys.readouterr())
                         for extra in ([], ["--compare"])])
    assert outcomes[0] == outcomes[1]
    (code, single), (compare_code, compare) = outcomes[0]
    assert (code, single.out) == (3, "")
    assert single.err == "error: FewerThanTwoSources: dsm_hybrid needs at least two sources\n"
    assert compare_code == 0
    assert [line for line in compare.out.splitlines() if line.startswith("note: ")] == [
        f"note: {rid}: FewerThanTwoSources: {rid} needs at least two sources"
        for rid in COMPARE_RULES]
    # sources of two kinds keep their own refusal
    path.write_text("frame: a b\nsource p:\n  a = 1\nsource t:\n  a = (1, 0, 0)\n")
    assert cli.main(["fuse", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "error: sources mix mass kinds; fuse like with like\n"


PRECISE_PAIR = "frame: a b\nsource m1:\n  a = 1\nsource m2:\n  b = 1\n"
IMPRECISE_PAIR = "frame: a b\nsource m1:\n  a = [0.4,1]\nsource m2:\n  b = {1}\n"
TRIPLE_PAIR = "frame: a b\nsource m1:\n  a = (1, 0, 0)\nsource m2:\n  b = (0, 0, 1)\n"


@pytest.mark.parametrize("text,rule,message", [
    (PRECISE_PAIR, "nnorm", "rule 'nnorm' does not take precise sources"),
    (PRECISE_PAIR, "dsm_hybrid_imprecise",
     "rule 'dsm_hybrid_imprecise' does not take precise sources"),
    (IMPRECISE_PAIR, "dempster", "rule 'dempster' does not take imprecise sources"),
    (TRIPLE_PAIR, "tconorm", "rule 'tconorm' does not take triple sources"),
    (PRECISE_PAIR, "entropy_max", "unknown rule 'entropy_max'"),
    (IMPRECISE_PAIR, "entropy_max", "unknown rule 'entropy_max'"),
    (TRIPLE_PAIR, "entropy_max", "unknown rule 'entropy_max'"),
], ids=["nnorm_precise", "imprecise_alias_precise", "dempster_imprecise", "tconorm_triple",
        "unknown_precise", "unknown_imprecise", "unknown_triple"])
def test_rule_refusals_say_whether_the_rule_exists(text, rule, message, tmp_path, capsys):
    """A rule id the table lacks is unknown on every source kind; a known
    rule that does not take the sources' kind says so."""
    path = tmp_path / "refused.dsm"
    path.write_text(text)
    assert cli.main(["fuse", "--scenario", str(path), "--rule", rule]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


NEGATIVE_LOWER_END = {"frame": ["a", "b"],
                      "sources": [{"mass": {"a": "[-1e-10,0.5]", "b": "[0.5,1]"}},
                                  {"mass": {"a": "[0.4,0.5]", "b": "[0.5,0.6]"}}]}


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("rule", ["dsm_classic", "dsm_hybrid"])
def test_a_set_reaching_below_zero_is_refused(rule, form, tmp_path, capsys):
    """A lower end in [-1e-9, 0) is inside the [0,1] tolerance, but the
    set product takes nonnegative sets only: the source is refused before
    any rule multiplies it."""
    if form == "json":
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(NEGATIVE_LOWER_END))
    else:
        path = tmp_path / "negative.dsm"
        path.write_text("frame: a b\nsource m1:\n  a = [-1e-10,0.5]\n  b = [0.5,1]\n"
                        "source m2:\n  a = [0.4,0.5]\n  b = [0.5,0.6]\n")
    assert cli.main(["fuse", "--scenario", str(path), "--rule", rule]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: source 'm1': set on a leaves [0,1]: [-1e-10,0.5]\n"


def test_json_task_without_a_rule_uses_the_default_rule(tmp_path, capsys):
    sources = [{"mass": {"a": [0.6, 0.1, 0.3], "b": [0.2, 0.2, 0.6]}},
               {"mass": {"a": [0.5, 0.3, 0.2], "a|b": [0.1, 0.1, 0.8]}}]
    outputs = []
    for task in ({"decide": True}, {"rule": None, "decide": True}):
        doc = tmp_path / "triples.json"
        doc.write_text(json.dumps({"frame": ["a", "b"], "sources": sources, "tasks": [task]}))
        assert cli.main(["fuse", "--scenario", str(doc)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "nnorm" in outputs[0]
    # the text form names the default rule, which has no spelling of its own
    assert "task: nnorm decide" in emit_scenario(load_scenario(str(doc)))


@pytest.mark.parametrize("task,needle", [
    ({"compare": "yes"}, "JSON field 'compare' must be a boolean, got a string"),
    ({"compare": 1}, "JSON field 'compare' must be a boolean, got a number"),
    ({"rule": "dempster", "decide": "yes please"},
     "JSON field 'decide' must be a boolean, got a string"),
    ({"rule": "dempster", "decide": 1}, "JSON field 'decide' must be a boolean, got a number"),
    ({"rule": "dempster", "compare": True}, "a JSON compare task takes no rule, got 'dempster'"),
    ({"compare": True, "rule": "compare"}, "a JSON compare task takes no rule, got 'compare'"),
], ids=["compare_string", "compare_number", "decide_string", "decide_number",
        "compare_with_rule", "compare_with_compare_rule"])
def test_json_task_flags_must_be_booleans_and_compare_takes_no_rule(task, needle, tmp_path,
                                                                    capsys):
    two = [{"mass": {"a": 1.0}}, {"mass": {"a": 1.0}}]
    doc = {"frame": ["a", "b"], "sources": two, "tasks": [task]}
    with pytest.raises(ValidationError, match=re.escape(needle)):
        from_json_dict(doc)
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["fuse", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert needle in captured.err


def test_json_task_flags_read_as_booleans(tmp_path, capsys):
    two = [{"mass": {"a": 0.5, "b": 0.5}}, {"mass": {"a": 1.0}}]
    plain = from_json_dict({"frame": ["a", "b"], "sources": two, "tasks": [{"rule": "dempster"}]})
    for flags in ({"compare": False, "decide": False}, {"compare": None, "decide": None}):
        doc = {"frame": ["a", "b"], "sources": two, "tasks": [dict(flags, rule="dempster")]}
        assert from_json_dict(doc) == plain
    both = from_json_dict({"frame": ["a", "b"], "sources": two,
                           "tasks": [{"compare": True, "rule": None, "decide": True}]})
    assert both.tasks == (Task("compare", None, (), True),)


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


def listing_models(tmp_path):
    """Scenario files for the listing tests: a hybrid model and a frame
    of keyword labels."""
    hybrid = tmp_path / "hybrid.dsm"
    hybrid.write_text("frame: a b c d\nmodel: hybrid\nconstraint: a & b = 0\n"
                      "constraint: c & (a | d) = 0\n")
    keywords = tmp_path / "keywords.dsm"
    keywords.write_text("frame: task source model\nmodel: free\n")
    return [fixture("vacuous_pignistic.dsm"), str(hybrid), str(keywords)]


def test_lattice_json_streams_the_dumps_format(tmp_path, capsys):
    # the listing is written incrementally (the n=6 lattice is huge), so
    # pin the stream to exactly what one json.dumps of the whole document
    # would have produced
    argvs = [["lattice", "--n", str(n)] for n in (0, 2, 4)]
    argvs += [["lattice", "--model", path] for path in listing_models(tmp_path)]
    for argv in argvs:
        assert cli.main(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_lattice_json_listing_refuses_a_label_no_expression_names(tmp_path, capsys):
    doc = tmp_path / "labels.json"
    doc.write_text(json.dumps({"frame": ["a\u0001", "\U0001d51e"], "model": {"kind": "free"}}))
    assert cli.main(["lattice", "--model", str(doc), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: hypothesis label 'a\\x01' ")
    assert captured.err.count("\n") == 1


def two_pass_table(model):
    """The table listing as first written: one pass over the elements sizes
    the expression column, a second pass renders and prints every row."""
    def rows():
        for el in model.iter_alive_elements():
            yield el.expr(style="ascii"), dsm_cardinality(model, el)

    out = io.StringIO()
    width = len("expression")
    count = 0
    for e, _ in rows():
        width = max(width, len(e))
        count += 1
    out.write(f"{'index':>5}  {'expression':<{width}}  cardinality\n")
    for i, (e, c) in enumerate(rows()):
        out.write(f"{i:>5}  {e:<{width}}  {c}\n")
    out.write(f"{count} elements\n")
    return out.getvalue()


def test_lattice_table_matches_a_two_pass_writer(tmp_path, capsys):
    models = [Model.free(Frame(tuple(f"th{i}" for i in range(1, n + 1)))) for n in (0, 1, 3, 4)]
    argvs = [["lattice", "--n", str(n)] for n in (0, 1, 3, 4)]
    for path in listing_models(tmp_path):
        models.append(load_scenario(path).model)
        argvs.append(["lattice", "--model", path])
    for model, argv in zip(models, argvs):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == two_pass_table(model)


def test_five_hypothesis_requests_do_not_import_numpy(tmp_path):
    # numpy would add about 12 MB of resident memory; the package has no
    # runtime dependency
    doc = tmp_path / "five.dsm"
    doc.write_text("frame: a b c d e\nmodel: hybrid\nconstraint: a & b = 0\n"
                   "source m1:\n  a = 0.6\n  b | (c & d) = 0.4\n"
                   "source m2:\n  a | e = 0.5\n  c = 0.5\n")
    script = (
        "import contextlib, io, sys\n"
        "from dsmfuse import cli\n"
        "for argv in (['lattice', '--n', '5'], ['lattice', '--n', '5', '--format', 'json'],\n"
        f"             ['fuse', '--scenario', {str(doc)!r}, '--decide'],\n"
        f"             ['fuse', '--scenario', {str(doc)!r}, '--decide', '--format', 'json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


def test_s3_flag_is_not_refused_where_no_rule_reads_it(tmp_path, capsys):
    # a document may not name an option its rule ignores, but the flag
    # applies wherever it is read and is never refused
    doc = tmp_path / "dempster.dsm"
    doc.write_text("frame: a b\nmodel: shafer\nsource m1:\n  a = 0.6\n  a | b = 0.4\n"
                   "source m2:\n  b = 0.3\n  a | b = 0.7\ntask: dempster\n")
    assert cli.main(["fuse", "--scenario", str(doc)]) == 0
    plain = capsys.readouterr()
    assert cli.main(["fuse", "--scenario", str(doc), "--s3", "union"]) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("rid", ["dsm_classic_imprecise", "dsm_hybrid_imprecise"])
def test_imprecise_spellings_name_themselves_when_sources_are_missing(rid, tmp_path, capsys):
    # with no sources and with one imprecise source the refusal is the same,
    # and names the id asked for, not its precise twin
    outcomes = []
    for sources in ("", "source m1:\n  a = [0.3,0.5]\n  b = [0.5,0.7]\n"):
        path = tmp_path / "few.dsm"
        path.write_text("frame: a b\n" + sources)
        code = cli.main(["fuse", "--scenario", str(path), "--rule", rid])
        outcomes.append((code, capsys.readouterr()))
    want = f"error: FewerThanTwoSources: {rid} needs at least two sources\n"
    assert [(code, out.out, out.err) for code, out in outcomes] == [(3, "", want)] * 2


def test_running_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    doc = tmp_path / "two.dsm"
    doc.write_text("frame: a b\nsource m1:\n  a = 1.0\nsource m2:\n  b = 1.0\n")
    monkeypatch.setattr(cli, "run", exhausted)
    monkeypatch.setattr(Model, "alive_bits", exhausted)
    for argv in (["fuse", "--scenario", str(doc), "--decide"], ["lattice", "--n", "3"],
                 ["lattice", "--model", str(doc), "--format", "json"]):
        assert cli.main(argv) == 4
        assert capsys.readouterr() == ("", "error: out of memory\n")
