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

with "&" meaning intersection and "|" union. The same schema travels as
JSON (see from_json_dict). parse_scenario(emit_scenario(s)) == s.
"""

import json
import re
from dataclasses import dataclass

from . import neutro, rules
from .decision import decide as decide_fn
from .decision import bel, gpt, pl
from .errors import DsmError, ParseError, ValidationError
from .lattice import Frame, LatticeElement, Model
from .mass import ImpreciseMass, PreciseMass, format_set, parse_set
from .neutro import NeutrosophicTriple, TripleMass

_SECTION_RE = re.compile(r"^(frame|model|constraint|source|task)\b\s*:?")


# --- element expressions -------------------------------------------------------

def parse_element(frame, text, line=None):
    """Expression over the frame's labels with & (meet), | (join), parens."""
    tokens = _tokenize(text, line)
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


def _tokenize(text, line):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "&|()":
            tokens.append((ch, i))
            i += 1
        elif ch == "∩":
            tokens.append(("&", i))
            i += 1
        elif ch == "∪":
            tokens.append(("|", i))
            i += 1
        else:
            m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[i:])
            if not m:
                raise ParseError(f"bad character {ch!r} in expression", line, i + 1)
            tokens.append((m.group(0), i))
            i += len(m.group(0))
    if not tokens:
        raise ParseError("empty expression", line)
    return tokens


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
        kinds = {type(m).__name__ for _, m in self.sources}
        return kinds.pop() if len(kinds) == 1 else "mixed"


# --- text parsing ----------------------------------------------------------------

def parse_scenario(text):
    frame_labels = None
    model_kind = None
    constraint_specs = []  # (expr text, line no)
    source_specs = []      # (name, [(expr text, value text, line)], line)
    task_specs = []        # (tokens, line)
    current_source = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        head = _SECTION_RE.match(stripped)
        if head:
            word = head.group(1)
            rest = stripped[head.end():].strip()
            if word == "frame":
                if frame_labels is not None:
                    raise ParseError("frame given twice", lineno)
                frame_labels = [w for w in re.split(r"[,\s]+", rest) if w]
                current_source = None
                continue
            if word == "model":
                if model_kind is not None:
                    raise ParseError("model given twice", lineno)
                model_kind = rest
                current_source = None
                continue
            if word == "constraint":
                constraint_specs.append((rest, lineno))
                current_source = None
                continue
            if word == "source":
                name = rest.rstrip(":").strip()
                if not name:
                    raise ParseError("source needs a name", lineno)
                current_source = []
                source_specs.append((name, current_source, lineno))
                continue
            if word == "task":
                task_specs.append((rest.split(), lineno))
                current_source = None
                continue
        if current_source is not None and "=" in stripped:
            expr_text, value_text = stripped.split("=", 1)
            current_source.append((expr_text.strip(), value_text.strip(), lineno))
            continue
        raise ParseError(f"unrecognized line {stripped!r}", lineno)

    return _build_scenario(frame_labels, model_kind, constraint_specs, source_specs, task_specs)


def _build_scenario(frame_labels, model_kind, constraint_specs, source_specs, task_specs):
    problems = []
    if not frame_labels:
        raise ValidationError(["scenario needs a nonempty frame"])
    try:
        frame = Frame(tuple(frame_labels))
    except ValueError as exc:
        raise ValidationError([str(exc)]) from None

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

    tasks = []
    for tokens, lineno in task_specs:
        tasks.append(_parse_task(tokens, lineno))

    if problems:
        raise ValidationError(problems)
    model = Model(frame, model_kind, constraints)
    return Scenario(frame, model, tuple(sources), tuple(tasks))


def _parse_value(value_text, lineno):
    """Returns ("precise", float) | ("imprecise", set) | ("triple", triple)."""
    text = value_text.strip()
    if text.startswith("(") and text.endswith(")") and text.count(",") == 2:
        inner = text[1:-1]
        parts = [p.strip() for p in inner.split(",")]
        try:
            t, i, f = (float(p) for p in parts)
        except ValueError:
            raise ParseError(f"bad triple {text!r}", lineno) from None
        return "triple", NeutrosophicTriple.of(t, i, f)
    if re.fullmatch(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", text):
        return "precise", float(text)
    try:
        return "imprecise", parse_set(text)
    except ParseError as exc:
        raise ParseError(f"bad mass value {text!r} ({exc})", lineno) from None


def _build_source(frame, name, entries):
    problems = []
    parsed = []
    kinds = set()
    for expr_text, value_text, lineno in entries:
        element = parse_element(frame, expr_text, lineno)
        kind, value = _parse_value(value_text, lineno)
        kinds.add(kind)
        parsed.append((element, value, lineno))
    if "triple" in kinds and kinds != {"triple"}:
        problems.append(f"source {name!r} mixes triples with other values")
        return None, problems
    store = {}
    for element, value, lineno in parsed:
        if element in store:
            problems.append(f"source {name!r} repeats focal element at line {lineno}")
        store[element] = value
    if kinds == {"triple"}:
        mass = TripleMass(frame, store)
    elif "imprecise" in kinds:
        from .mass import SubunitarySet

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
        if tok == "decide":
            decide = True
        elif "=" in tok:
            k, v = tok.split("=", 1)
            params[k] = v
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
        tokens = []
        if t.get("compare"):
            tokens.append("compare")
        else:
            # a null rule means the scenario's default rule
            tokens.append(_json_field(t, "rule", str, None) if "rule" in t else "dsm_hybrid")
        for k, v in sorted(_json_field(t, "params", dict, {}).items()):
            tokens.append(f"{k}={v}")
        if t.get("decide"):
            tokens.append("decide")
        task_specs.append((tokens, None))
    return _build_scenario(
        _json_field(doc, "frame", list, None), model.get("kind"), constraint_specs,
        source_specs, task_specs,
    )


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_value_text(v):
    if _is_number(v):
        return repr(float(v))
    if isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)):
        return "(" + ", ".join(repr(float(x)) for x in v) + ")"
    if isinstance(v, str):
        return v
    raise ValidationError([f"bad mass value {v!r} in JSON scenario"])


def load_scenario(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.lineno, exc.colno) from None
        return from_json_dict(doc)
    return parse_scenario(text)


# --- emission ---------------------------------------------------------------------

def emit_scenario(scenario):
    """Text form that parses back to an equal Scenario."""
    lines = ["frame: " + " ".join(scenario.frame.labels)]
    lines.append(f"model: {scenario.model.kind}")
    for c in scenario.model.constraints:
        lines.append(f"constraint: {c.expr(style='ascii')} = 0")
    for name, mass in scenario.sources:
        lines.append(f"source {name}:")
        for el, v in mass.items():
            lines.append(f"  {el.expr(style='ascii')} = {_emit_value(v)}")
    for task in scenario.tasks:
        tokens = [task.rule if task.kind == "fuse" else "compare"]
        tokens += [f"{k}={v}" for k, v in task.params]
        if task.decide:
            tokens.append("decide")
        lines.append("task: " + " ".join(tokens))
    return "\n".join(lines) + "\n"


def _emit_value(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, NeutrosophicTriple):
        t, i, f = v.as_points()
        return f"({t!r}, {i!r}, {f!r})"
    return format_set(v)


# --- execution --------------------------------------------------------------------

COMPARE_RULES = ("dsm_classic", "dempster", "smets", "yager", "dubois_prade", "dsm_hybrid")

_S3_VALUES = {"components": rules.S3_COMPONENTS, "union": rules.S3_UNION}


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
    kind = scenario.source_kind
    if kind == "TripleMass":
        return "nnorm"
    return "dsm_hybrid"


def run(scenario, rule=None, compare=False, decide=False, s3=None):
    """Execute the scenario's tasks (or the overriding rule/compare request)
    and return a list of TaskResult. decide and s3, when given, apply to
    every task run."""
    tasks = list(scenario.tasks)
    if rule or compare:
        tasks = [Task("compare" if compare else "fuse", rule, (), decide)]
    elif not tasks:
        tasks = [Task("fuse", None, (), decide)]
    elif decide:
        tasks = [Task(t.kind, t.rule, t.params, True) for t in tasks]
    if s3:
        tasks = [Task(t.kind, t.rule, tuple(sorted(dict(t.params, s3=s3).items())), t.decide)
                 for t in tasks]

    results = []
    for task in tasks:
        if task.kind == "compare":
            for rid in COMPARE_RULES:
                results.append(_run_one(scenario, Task("fuse", rid, task.params, task.decide),
                                         capture=True))
        else:
            results.append(_run_one(scenario, task, capture=False))
    return results


def _run_one(scenario, task, capture):
    rid = task.rule or default_rule(scenario)
    try:
        report = _dispatch(scenario, task, rid)
    except DsmError as exc:
        if capture:
            return TaskResult(task, rid, error=exc)
        raise
    result = TaskResult(task, rid, report=report)
    if task.decide and isinstance(report.mass, PreciseMass):
        result.bel = {el: bel(report.mass, el, report.model) for el, _ in report.mass.items()}
        result.pl = {el: pl(report.mass, el, report.model) for el, _ in report.mass.items()}
        result.pignistic = gpt(report.model, report.mass)
        result.decision = decide_fn(result.pignistic)
    return result


def _dispatch(scenario, task, rid):
    sources = [m for _, m in scenario.sources]
    kind = scenario.source_kind
    if kind == "mixed":
        raise ValidationError(["sources mix mass kinds; fuse like with like"])
    model = scenario.model
    s3 = _S3_VALUES.get(task.param("s3", "components"))
    if s3 is None:
        raise ValidationError([f"unknown s3 target {task.param('s3')!r}"])
    norm = task.param("norm", "algebraic")

    if kind == "TripleMass":
        if rid in ("nnorm", "nnorm_fusion"):
            return neutro.nnorm_fusion(norm, sources, model=model, s3_target=s3)
        if rid in ("nconorm", "nconorm_fusion"):
            return neutro.nconorm_fusion(norm, sources, model=model)
        raise ValidationError([f"rule {rid!r} does not take triple sources"])

    if kind == "ImpreciseMass":
        if rid in ("dsm_classic", "dsm_classic_imprecise"):
            return rules.dsm_classic(sources)
        if rid in ("dsm_hybrid", "dsm_hybrid_imprecise"):
            return rules.dsm_hybrid(model, sources, s3_target=s3)
        raise ValidationError([f"rule {rid!r} does not take imprecise sources"])

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
        raise ValidationError([f"unknown rule {rid!r}"])
    return table[rid]()
