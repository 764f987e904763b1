"""Scenario documents: a frame, a model, named sources, and tasks.

Text form, one directive per line, # comments allowed:

    frame: th1 th2 th3
    model: shafer
    constraint: th3 = 0
    source m1:
      th1 = 0.1
      th1 | th2 = 0.3
    task: compare decide
    task: dsm_hybrid decide

Source values decide the source kind: bare reals make a precise mass, set
syntax ("[0.1,0.2]u{0.3}") an imprecise one, and three-part "(t, i, f)"
tuples a triple mass. Focal elements use the expression grammar

    expr   := term ("|" term)*
    term   := factor ("&" factor)*
    factor := label | "(" expr ")"

with "&" (or "∩") meaning intersection and "|" (or "∪") union. A label is
[A-Za-z_][A-Za-z0-9_]*, and a frame label that is not one is refused, since
no expression could name it. Whitespace between tokens is ignored;
parse_element reads an expression in one pass, stacking open parentheses. A
parenthesized value with two commas is a triple unless a "u" joins it to
another piece. A task line takes "decide" and the norm=... and s3=...
options its rule reads; any other word is refused. JSON carries the same
schema (see from_json_dict); parse_scenario(emit_scenario(s)) == s when
tasks name their rule.

One table, _RULES, declares per rule id the source kinds it takes, the task
options it reads and how to call it: the parse-time option check and the
dispatch both read it. A compare task runs the COMPARE_RULES lineup and
keeps a rule's error in its result; any other task raises it.
"""

import json
import re
from dataclasses import dataclass, replace

from . import neutro, rules
from .decision import decide as decide_fn
from .decision import bel, bel_pl_tables, gpt, pl  # noqa: F401 - perfbench's tracer wraps bel and pl
from .errors import DsmError, ParseError, ValidationError
from .lattice import Frame, LatticeElement, Model, _label_atoms, expressions
from .mass import (
    _JOIN_RE, _POINT_RE, ImpreciseMass, PreciseMass, SubunitarySet, _fmt_num, format_set, parse_set,
)
from .neutro import NeutrosophicTriple, TripleMass

# the one label grammar: a frame takes only the labels an expression can name
_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# one match per token: group 1 is the label or operator, "" for any other
# non-space character
_TOKEN_RE = re.compile(rf"({_LABEL_RE.pattern}|[&|()∩∪])|\S")
# tokens that are not labels, with their spelling in error messages
_NOT_LABELS = {"&": "&", "∩": "&", "|": "|", "∪": "|", ")": ")", None: None}
_MEETS = ("&", "∩")
_JOINS = ("|", "∪")
# a keyword followed by an operator or "=" starts a focal line, not a directive
_SECTION_RE = re.compile(r"^(frame|model|constraint|source|task)\b(?!\s*[=&|∩∪])\s*:?")

# deepest parenthesis nesting parse_element accepts: it bounds its parenthesis stack
MAX_NESTING = 100


# --- element expressions -------------------------------------------------------

def parse_element(frame, text, line=None):
    """Expression over the frame's labels with & (meet), | (join), parens,
    read in one pass: "(" stacks its level's join of finished terms and
    pending meet. A grammar error first lets _raise_at report a bad
    character or too deep a nesting anywhere in the text."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ParseError("empty expression", line)
    tokens.append(None)
    atoms = _label_atoms(frame.labels)
    stack, join, meet, operand = [], 0, -1, True  # 0 and -1: identities of | and &
    for k, tok in enumerate(tokens):
        if operand:
            if tok == "(":
                stack.append((join, meet))
                join, meet = 0, -1
                if len(stack) > MAX_NESTING:
                    message = f"parentheses nested deeper than {MAX_NESTING}"
                    break
                continue
            x = None if tok in _NOT_LABELS else atoms.get(tok)
            if x is None:
                message = (f"expected a hypothesis label, got {_NOT_LABELS[tok]!r}"
                           if tok in _NOT_LABELS else f"unknown hypothesis {tok!r}")
                break
            meet &= x
            operand = False
        elif tok in _MEETS:
            operand = True
        elif tok in _JOINS:
            join, meet, operand = join | meet, -1, True
        elif tok == ")" and stack:
            x = join | meet
            join, meet = stack.pop()
            meet &= x
        elif tok is None and not stack:
            return LatticeElement(frame, join | meet)
        else:
            message = "expected closing parenthesis" if stack else f"unexpected {tok!r}"
            break
    _raise_at(text, k, message, line)


def _raise_at(text, k, message, line):
    """Raise message at token k of text, or at its end past the last token,
    unless the text holds a character that is no token or a parenthesis
    nested deeper than MAX_NESTING: one scan raises the first of those."""
    depth, column = 0, len(text)
    for j, m in enumerate(_TOKEN_RE.finditer(text)):
        tok = m.group(1)
        if not tok:
            raise ParseError(f"bad character {m.group(0)!r} in expression", line, m.start() + 1)
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", line, m.start() + 1)
        if j == k:
            column = m.start()
    raise ParseError(message, line, column + 1)


# --- scenario data -------------------------------------------------------------

@dataclass(frozen=True)
class Task:
    kind: str  # "fuse" or "compare"
    rule: str = None
    params: tuple = ()  # sorted (key, value) pairs
    decide: bool = False

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


@dataclass(frozen=True)
class Scenario:
    frame: Frame
    model: Model
    sources: tuple  # of (name, mass)
    tasks: tuple    # of Task

    @property
    def source_kind(self):
        """The sources' mass class name: "mixed" if they differ, None if there are none."""
        kinds = {type(m).__name__ for _, m in self.sources}
        return "mixed" if len(kinds) > 1 else next(iter(kinds), None)


# --- text parsing ----------------------------------------------------------------

def parse_scenario(text):
    frame_labels = None
    model_kind = None
    constraint_specs = []  # (expr text, line no)
    source_specs = []      # (name, [(expr text, value text, line)], line)
    task_specs = []        # (tokens, line)
    current_source = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = _SECTION_RE.match(line)
        if head is None:
            if current_source is None or "=" not in line:
                raise ParseError(f"unrecognized line {line!r}", lineno)
            expr_text, value_text = line.split("=", 1)
            current_source.append((expr_text.strip(), value_text.strip(), lineno))
            continue
        word, rest = head.group(1), line[head.end():].strip()
        current_source = None
        if word == "frame":
            if frame_labels is not None:
                raise ParseError("frame given twice", lineno)
            frame_labels = [w for w in re.split(r"[,\s]+", rest) if w]
        elif word == "model":
            if model_kind is not None:
                raise ParseError("model given twice", lineno)
            model_kind = rest
        elif word == "constraint":
            constraint_specs.append((rest, lineno))
        elif word == "source":
            name = rest.rstrip(":").strip()
            if not name:
                raise ParseError("source needs a name", lineno)
            current_source = []
            source_specs.append((name, current_source, lineno))
        else:
            task_specs.append((rest.split(), lineno))

    return _build_scenario(frame_labels, model_kind, constraint_specs, source_specs, task_specs)


def _build_scenario(frame_labels, model_kind, constraint_specs, source_specs, task_specs):
    problems = []
    if not frame_labels:
        raise ValidationError(["scenario needs a nonempty frame"])
    try:
        frame = Frame(tuple(frame_labels))
    except ValueError as exc:
        raise ValidationError([str(exc)]) from None
    bad = next((label for label in frame.labels if not _LABEL_RE.fullmatch(label)), None)
    if bad is not None:
        raise ValidationError([f"hypothesis label {bad!r} must be a letter or _ followed by"
                               " letters, digits or _"])

    model_kind = model_kind or "free"
    if model_kind not in ("free", "shafer", "hybrid"):
        raise ValidationError([f"unknown model kind {model_kind!r}"])
    constraints = []
    for spec, lineno in constraint_specs:
        expr_text = spec
        if "=" in spec:
            expr_text, rhs = spec.rsplit("=", 1)
            if rhs.strip() not in ("0", "{}", "∅"):
                raise ParseError("constraints are written '<expr> = 0'", lineno)
        constraints.append(parse_element(frame, expr_text.strip(), lineno))
    if constraints and model_kind == "free":
        problems.append("constraints need 'model: hybrid' (or shafer)")

    sources = []
    seen_names = set()
    for name, entries, lineno in source_specs:
        if "#" in name or name.splitlines() != [name] or name.strip().strip(":") != name \
                or name[0] in "=&|∩∪":
            problems.append(f"source name {name!r} must hold no '#' or line break, no space or "
                            "':' at either end, and not start with '=', '&', '|', '∩' or '∪'")
            continue
        if name in seen_names:
            problems.append(f"duplicate source name {name!r}")
            continue
        seen_names.add(name)
        if not entries:
            problems.append(f"source {name!r} has no focal elements")
            continue
        mass, source_problems = _build_source(frame, name, entries)
        problems.extend(source_problems)
        if mass is not None:
            sources.append((name, mass))

    tasks = [_parse_task(tokens, lineno) for tokens, lineno in task_specs]

    if problems:
        raise ValidationError(problems)
    model = Model(frame, model_kind, constraints)
    scenario = Scenario(frame, model, tuple(sources), tuple(tasks))
    for task, (_, lineno) in zip(tasks, task_specs):
        rid = "compare" if task.kind == "compare" else task.rule or default_rule(scenario)
        for key, _ in task.params:
            if key not in _options_read(rid):
                raise ParseError(f"rule {rid!r} does not read the task option {key!r}", lineno)
    return scenario


def _parse_value(value_text, lineno):
    """Returns ("precise", float) | ("imprecise", set) | ("triple", triple)."""
    text = value_text.strip()
    if text.startswith("(") and text.endswith(")") and text.count(",") == 2 \
            and not _JOIN_RE.search(text):
        inner = text[1:-1]
        parts = [p.strip() for p in inner.split(",")]
        try:
            t, i, f = (float(p) for p in parts)
        except ValueError:
            raise ParseError(f"bad triple {text!r}", lineno) from None
        return "triple", NeutrosophicTriple.of(t, i, f)
    if _POINT_RE.fullmatch(text):
        return "precise", float(text)
    try:
        return "imprecise", parse_set(text)
    except ParseError as exc:
        raise ParseError(f"bad mass value {text!r} ({exc})", lineno) from None


def _build_source(frame, name, entries):
    problems, store, kinds = [], {}, set()
    for expr_text, value_text, lineno in entries:
        element = parse_element(frame, expr_text, lineno)
        kind, value = _parse_value(value_text, lineno)
        kinds.add(kind)
        if element in store:
            problems.append(f"source {name!r} repeats focal element at line {lineno}")
        store[element] = value
    if "triple" in kinds:
        if len(kinds) > 1:
            return None, [f"source {name!r} mixes triples with other values"]
        mass = TripleMass(frame, store)
    elif "imprecise" in kinds:
        store = {
            el: v if not isinstance(v, float) else SubunitarySet.point(v)
            for el, v in store.items()
        }
        mass = ImpreciseMass(frame, store)
    else:
        mass = PreciseMass(frame, store)
    for p in mass.validate():
        problems.append(f"source {name!r}: {p}")
    return (mass if not problems else None), problems


def _parse_task(tokens, lineno=None):
    if not tokens:
        raise ParseError("empty task", lineno)
    head = tokens[0]
    params = {}
    decide = False
    for tok in tokens[1:]:
        key, eq, value = tok.partition("=")
        if tok == "decide":
            decide = True
        elif eq and key in _TASK_OPTIONS:
            params[key] = value
        else:
            raise ParseError(f"unknown task option {tok!r}", lineno)
    if head == "compare":
        return Task("compare", None, tuple(sorted(params.items())), decide)
    return Task("fuse", head, tuple(sorted(params.items())), decide)


# --- JSON encoding ---------------------------------------------------------------

_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number"}


def _json_typed(value, kind, what):
    """value itself when it has the JSON type kind."""
    if not isinstance(value, kind):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise ValidationError([f"{what} must be {_JSON_NAMES[kind]}, got {got}"])
    return value


def _json_field(obj, key, kind, default):
    value = obj.get(key)
    if value is None:
        return default
    return _json_typed(value, kind, f"JSON field {key!r}")


def from_json_dict(doc):
    if not isinstance(doc, dict):
        raise ValidationError(["JSON scenario must be an object"])
    model = _json_field(doc, "model", dict, {})
    constraint_specs = [(_json_typed(c, str, "a JSON constraint"), None)
                        for c in _json_field(model, "constraints", list, [])]
    source_specs = []
    for src in _json_field(doc, "sources", list, []):
        src = _json_typed(src, dict, "a JSON source")
        entries = [
            (expr, _json_value_text(v), None)
            for expr, v in _json_field(src, "mass", dict, {}).items()
        ]
        name = _json_field(src, "name", str, f"m{len(source_specs) + 1}")
        source_specs.append((name, entries, None))
    task_specs = []
    for t in _json_field(doc, "tasks", list, []):
        t = _json_typed(t, dict, "a JSON task")
        # a missing or null rule means the scenario's default rule
        rule = _json_field(t, "rule", str, None)
        if _json_field(t, "compare", bool, False):
            if rule is not None:
                raise ValidationError([f"a JSON compare task takes no rule, got {rule!r}"])
            rule = "compare"
        tokens = [rule]
        for k, v in sorted(_json_field(t, "params", dict, {}).items()):
            tokens.append(f"{k}={v}")
        if _json_field(t, "decide", bool, False):
            tokens.append("decide")
        task_specs.append((tokens, None))
    return _build_scenario(
        _json_field(doc, "frame", list, None), model.get("kind"), constraint_specs,
        source_specs, task_specs,
    )


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_value_text(v):
    try:
        if _is_number(v):
            return repr(float(v))
        if isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)):
            return "(" + ", ".join(repr(float(x)) for x in v) + ")"
    except OverflowError:
        raise ValidationError(["JSON mass value too large for a float"]) from None
    if isinstance(v, str):
        return v
    raise ValidationError([f"bad mass value {v!r} in JSON scenario"])


def load_scenario(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.lineno, exc.colno) from None
        except ValueError:  # an integer past the interpreter's digit limit
            raise ParseError("bad JSON: a number has too many digits") from None
        except RecursionError:
            raise ParseError("bad JSON: nested too deeply") from None
        return from_json_dict(doc)
    return parse_scenario(text)


# --- emission ---------------------------------------------------------------------

def emit_scenario(scenario):
    """Text form that parses back to an equal Scenario."""
    model = scenario.model
    lines = ["frame: " + " ".join(scenario.frame.labels), f"model: {model.kind}"]
    lines += map("constraint: %s = 0".__mod__, expressions(
        model.frame.labels, "ascii", [c.bits for c in model.constraints]))
    for name, mass in scenario.sources:
        lines.append(f"source {name}:")
        items = mass.items()
        exprs = expressions(mass.frame.labels, "ascii", [el.bits for el, _ in items])
        lines += [f"  {e} = {_format_value(v)}" for e, (_, v) in zip(exprs, items)]
    for task in scenario.tasks:
        tokens = [(task.rule or default_rule(scenario)) if task.kind == "fuse" else "compare"]
        tokens += [f"{k}={v}" for k, v in task.params]
        if task.decide:
            tokens.append("decide")
        lines.append("task: " + " ".join(tokens))
    return "\n".join(lines) + "\n"


def _format_value(value, precision=None):
    """A float, triple or set with precision decimals; None gives the
    shortest text that parses back to the same value."""
    if isinstance(value, float):
        return _fmt_num(value, precision)
    if isinstance(value, NeutrosophicTriple):
        return "(" + ", ".join(_fmt_num(x, precision) for x in value.as_points()) + ")"
    return format_set(value, precision)


# --- execution --------------------------------------------------------------------

COMPARE_RULES = ("dsm_classic", "dempster", "smets", "yager", "dubois_prade", "dsm_hybrid")

# Rule id -> (source kinds it takes, task options it reads, call). A call
# takes (sources, model, s3, norm) and looks its rule up in rules or neutro
# when it runs, so a patched module attribute is the one called.
_RULES = {
    "dsm_classic": ("precise imprecise", "", lambda s, m, s3, norm: rules.dsm_classic(s)),
    "dsm_classic_imprecise": ("imprecise", "",
                              lambda s, m, s3, norm: rules.dsm_classic_imprecise(s)),
    "dsm_hybrid": ("precise imprecise", "s3", lambda s, m, s3, norm: rules.dsm_hybrid(m, s, s3)),
    "dsm_hybrid_imprecise": ("imprecise", "s3",
                             lambda s, m, s3, norm: rules.dsm_hybrid_imprecise(m, s, s3)),
    "dempster": ("precise", "", lambda s, m, s3, norm: rules.dempster(m, s)),
    "smets": ("precise", "", lambda s, m, s3, norm: rules.smets(m, s)),
    "yager": ("precise", "", lambda s, m, s3, norm: rules.yager(m, s)),
    "dubois_prade": ("precise", "", lambda s, m, s3, norm: rules.dubois_prade(m, s)),
    "disjunctive": ("precise", "", lambda s, m, s3, norm: rules.disjunctive(s, m)),
    "dsmc_improved": ("precise", "", lambda s, m, s3, norm: rules.dsmc_improved(s, m)),
    "dsmh_improved": ("precise", "s3", lambda s, m, s3, norm: rules.dsmh_improved(m, s, s3)),
    "disjunctive_improved": ("precise", "",
                             lambda s, m, s3, norm: rules.disjunctive_improved(s, m)),
    "tnorm": ("precise", "norm s3", lambda s, m, s3, norm: rules.tnorm_fusion(norm, s, m, s3)),
    "tconorm": ("precise", "norm", lambda s, m, s3, norm: rules.tconorm_fusion(norm, s, m)),
    "nnorm": ("triple", "norm s3", lambda s, m, s3, norm: neutro.nnorm_fusion(norm, s, m, s3)),
    "nconorm": ("triple", "norm", lambda s, m, s3, norm: neutro.nconorm_fusion(norm, s, m)),
}
_RULES["nnorm_fusion"] = _RULES["nnorm"]
_RULES["nconorm_fusion"] = _RULES["nconorm"]
_TASK_OPTIONS = {key for _, options, _ in _RULES.values() for key in options.split()}


def _options_read(rid):
    """The task options rule rid reads; compare reads its lineup's."""
    if rid == "compare":
        return {key for r in COMPARE_RULES for key in _options_read(r)}
    return _RULES[rid][1].split() if rid in _RULES else ()


@dataclass
class TaskResult:
    task: Task
    rule: str
    report: object = None
    error: object = None
    bel: dict = None
    pl: dict = None
    pignistic: object = None
    decision: object = None


def default_rule(scenario):
    """The rule of a task that names none: nnorm on triple sources, else dsm_hybrid."""
    return "nnorm" if scenario.source_kind == "TripleMass" else "dsm_hybrid"


def run(scenario, rule=None, compare=False, decide=False, s3=None):
    """Execute the scenario's tasks (or the overriding rule/compare request)
    and return a list of TaskResult. decide and s3, when given, apply to
    every task run."""
    if rule or compare or not scenario.tasks:
        tasks = [Task("compare" if compare else "fuse", rule, (), decide)]
    else:
        tasks = [replace(t, decide=True) if decide else t for t in scenario.tasks]
    if s3:
        tasks = [replace(t, params=tuple(sorted(dict(t.params, s3=s3).items()))) for t in tasks]

    results = []
    for task in tasks:
        rids = COMPARE_RULES if task.kind == "compare" else (task.rule or default_rule(scenario),)
        results.extend(_run_one(scenario, task, rid) for rid in rids)
    return results


def _run_one(scenario, task, rid):
    """Run rule rid for task; a compare task reports a rule error in its
    result instead of raising it."""
    try:
        report = _dispatch(scenario, task, rid)
    except DsmError as exc:
        if task.kind == "compare":
            return TaskResult(task, rid, error=exc)
        raise
    result = TaskResult(task, rid, report=report)
    if task.decide and isinstance(report.mass, PreciseMass):
        result.bel, result.pl = bel_pl_tables(report.mass, report.model)
        result.pignistic = gpt(report.model, report.mass)
        result.decision = decide_fn(result.pignistic)
    return result


def _dispatch(scenario, task, rid):
    """Fuse the scenario's sources with rule rid under the task's options."""
    kind = scenario.source_kind
    if kind == "mixed":
        raise ValidationError(["sources mix mass kinds; fuse like with like"])
    s3 = task.param("s3", rules.S3_COMPONENTS)
    if s3 not in (rules.S3_COMPONENTS, rules.S3_UNION):
        raise ValidationError([f"unknown s3 target {s3!r}"])
    kinds, _, call = _RULES.get(rid, ("", "", None))
    # with no sources, the rule itself refuses them as fewer than two
    word = kind and kind.removesuffix("Mass").lower()
    if call is None or word and word not in kinds.split():
        raise ValidationError([f"rule {rid!r} does not take {word} sources" if call
                               else f"unknown rule {rid!r}"])
    return call([m for _, m in scenario.sources], scenario.model, s3,
                task.param("norm", "algebraic"))
