"""Command line front end.

    dsmfuse fuse --scenario demo.dsm [--rule dempster] [--compare] [--decide]
                 [--format table|json] [--precision 6|full] [--s3 components|union]
                 [--max-frame 5]
    dsmfuse lattice --n 3 [--model demo.dsm] [--format table|json] [--max-frame 5]

Exit codes: 0 success, 2 parse or validation error, 3 rule error,
4 resource limit (frame larger than --max-frame allows, or memory ran out).
"""

import argparse
import functools
import sys
from array import array
from itertools import chain, count, groupby, repeat
from json.encoder import encode_basestring_ascii as _json_str

from .errors import DsmError, FrameTooLarge, ParseError, ValidationError
from .lattice import MAX_FRAME_SIZE, Frame, Model, expressions
from .mass import PreciseMass, format_set
from .neutro import NeutrosophicTriple
from .scenario import _format_value, load_scenario, run

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RULE = 3
EXIT_RESOURCE = 4


def _parse_precision(text):
    if text == "full":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("precision is an integer or 'full'")
    if not 0 <= value <= 1074:  # a double's exact decimal expansion needs at most 1074
        raise argparse.ArgumentTypeError("precision must be between 0 and 1074")
    return value


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(prog="dsmfuse", description="Evidential fusion over hyper-power sets")
    sub = parser.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="fuse a scenario's sources")
    fuse.add_argument("--scenario", required=True, help="scenario file (text or JSON)")
    fuse.add_argument("--rule", help="rule id, overriding the scenario's tasks")
    fuse.add_argument("--compare", action="store_true", help="run the standard rule lineup side by side")
    fuse.add_argument("--decide", action="store_true", help="add Bel/Pl, the pignistic table and a decision")
    fuse.add_argument("--format", choices=("table", "json"), default="table")
    fuse.add_argument("--precision", type=_parse_precision, default=6,
                      help="decimal places for printed numbers, or 'full'")
    fuse.add_argument("--s3", choices=("components", "union"), default=None,
                      help="where mass stranded by partial constraints lands")
    fuse.add_argument("--max-frame", type=int, default=5, help="largest frame size to accept")

    lat = sub.add_parser("lattice", help="list the model's distinct elements")
    lat.add_argument("--n", type=int, help="frame size for a free model with labels th1..thN")
    lat.add_argument("--model", help="scenario file supplying the frame and model")
    lat.add_argument("--format", choices=("table", "json"), default="table")
    lat.add_argument("--max-frame", type=int, default=5, help="largest frame size to accept")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fuse":
            return _cmd_fuse(args)
        return _cmd_lattice(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FrameTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except DsmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RULE


def _check_frame_budget(frame, max_frame):
    if frame.n > max_frame:
        raise FrameTooLarge(f"frame has {frame.n} hypotheses; raise --max-frame"
                            f" (at most {MAX_FRAME_SIZE}) to allow it")


def _cmd_fuse(args):
    scenario = load_scenario(args.scenario)
    _check_frame_budget(scenario.frame, args.max_frame)
    results = run(scenario, rule=args.rule, compare=args.compare, decide=args.decide,
                  s3=args.s3)
    out = _render_json(scenario, results, args.precision) if args.format == "json" \
        else _render_table(scenario, results, args.precision)
    print(out, end="")
    return EXIT_OK


def _cmd_lattice(args):
    if args.model:
        scenario = load_scenario(args.model)
        frame, model = scenario.frame, scenario.model
        if args.n is not None and args.n != frame.n:
            raise ValidationError([f"--n {args.n} disagrees with the scenario frame ({frame.n})"])
    elif args.n is not None:
        if args.n < 0:
            raise ValidationError([f"--n must be nonnegative, got {args.n}"])
        frame = Frame(tuple(f"th{i}" for i in range(1, args.n + 1)))
        model = Model.free(frame)
    else:
        raise ValidationError(["lattice needs --n or --model"])
    _check_frame_budget(frame, args.max_frame)
    # the model's reduced alive bitsets, which start with the empty element;
    # rows print by %, which formats a row faster than str.format does
    bits, out = model.alive_bits(), sys.stdout
    exprs, cards = expressions(frame.labels, "ascii", bits), map(int.bit_count, bits)
    if args.format == "json":
        # written as it is produced, matching json.dumps(doc, indent=2)
        out.write("{\n" + ",\n".join(_json_head(frame, model)) + ',\n  "elements": [')
        row = '%s    {\n      "index": %d,\n      "expression": %s,\n      "cardinality": %d\n    }'
        out.writelines(map(row.__mod__, zip(chain(["\n"], repeat(",\n")), count(),
                                            map(_json_str, exprs), cards)))
        out.write(f'\n  ],\n  "count": {len(bits)}\n}}\n')
        return EXIT_OK
    # the expression column is as wide as the widest row, so every row is
    # rendered once and held until the width is known (7.8 million strings
    # at six hypotheses)
    exprs = list(exprs)
    width = max(max(map(len, exprs)), len("expression"))
    out.write(f"{'index':>5}  {'expression':<{width}}  cardinality\n")
    out.writelines(map(f"%5d  %-{width}s  %d\n".__mod__, zip(count(), exprs, cards)))
    out.write(f"{len(bits)} elements\n")
    return EXIT_OK

# --- JSON writing ------------------------------------------------------------------
#
# Reports and listings are written row by row with the bytes of
# json.dumps(doc, indent=2), which with an indent runs json's pure-Python
# encoder: each nesting level indents two more spaces, strings are
# ASCII-escaped and floats print as float.__repr__.

# the spellings json uses for the floats float.__repr__ prints as nan and inf
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values, precision):
    """Floats as JSON, column-wise: each rounded to precision places (None
    keeps every digit) and printed by float.__repr__, nan and the
    infinities in json's spellings."""
    if precision is not None:
        values = map(round, values, repeat(precision))
    texts = list(map(float.__repr__, values))
    return map(_NONFINITE.get, texts, texts)


def _json_text(value, precision, pad):
    """A reported value as JSON nested at indent pad: a float rounded to
    precision places (None keeps every digit), a triple as an array of its
    three points, a set as its text."""
    if isinstance(value, float):
        text = float.__repr__(value if precision is None else round(value, precision))
        return _NONFINITE.get(text, text)
    if isinstance(value, NeutrosophicTriple):
        # a fused triple's components are points: read each off its one piece
        return _json_wrap([f"{pad}  {_json_text(c.pieces[0].lower, precision, pad)}"
                           for c in value.components()], pad, "[]")
    return _json_str(format_set(value, precision))


def _json_wrap(rows, pad, brackets="{}"):
    """rows, each already indented one level past pad, as a JSON object or
    array closed at indent pad."""
    if not rows:
        return brackets
    return brackets[0] + "\n" + ",\n".join(rows) + "\n" + pad + brackets[1]


def _json_strings(strings, pad):
    """strings as a JSON array closed at indent pad."""
    inner = pad + "  "
    return _json_wrap([inner + _json_str(text) for text in strings], pad, "[]")


def _json_rows(bitsets, texts, labels, pad, distinct=False):
    """A JSON object closed at indent pad: each text keyed by its bitset's
    canonical expression. As in a dict, a repeated expression keeps its
    first place and its last text; distinct says none repeats, as for a
    model's alive bitsets, and skips that dict."""
    keys = map(_json_str, expressions(labels, "ascii", bitsets))
    if not distinct:
        rows = dict(zip(keys, texts))
        keys, texts = rows, rows.values()
    return _json_wrap(list(map(f"{pad}  {{}}: {{}}".format, keys, texts)), pad)


def _json_head(frame, model):
    """The "frame" and "model" members every JSON document opens with."""
    constraints = _json_strings(expressions(
        model.frame.labels, "ascii", [c.bits for c in model.constraints]), "    ")
    model_doc = _json_wrap([f'    "kind": {_json_str(model.kind)}',
                            f'    "constraints": {constraints}'], "  ")
    return [f'  "frame": {_json_strings(frame.labels, "  ")}', f'  "model": {model_doc}']


def _json_task(r, labels, precision):
    """One entry of a report's "tasks" array."""
    pad = "      "
    fields = [f'{pad}"rule": {_json_str(r.report.rule if r.report is not None else r.rule)}']
    if r.error is not None:
        fields.append(f'{pad}"error": {_json_str(f"{type(r.error).__name__}: {r.error}")}')
        return "    " + _json_wrap(fields, "    ")
    mass = r.report.mass.items()
    texts = _json_floats([v for _, v in mass], precision) if isinstance(r.report.mass, PreciseMass) \
        else [_json_text(v, precision, pad + "  ") for _, v in mass]
    fields.append(f'{pad}"mass": {_json_rows([el.bits for el, _ in mass], texts, labels, pad)}')
    fields.append(f'{pad}"conflict": {_json_text(r.report.conflict, precision, pad)}')
    fields.append(f'{pad}"warnings": {_json_strings(_warnings(r), pad)}')
    if r.bel is not None:
        for name, table in (("bel", r.bel), ("pl", r.pl)):
            rows = _json_rows([el.bits for el in table], _json_floats(table.values(), precision),
                              labels, pad)
            fields.append(f'{pad}"{name}": {rows}')
    if r.pignistic is not None:
        rows = _json_rows(r.pignistic.bits, _distinct_floats(r.pignistic.values, _json_floats, precision),
                          labels, pad, distinct=True)
        fields.append(f'{pad}"pignistic": {rows}')
    if r.decision is not None:
        inner = pad + "  "
        decision = [f'{inner}"choice": {_json_str(r.decision.choice.expr(style="ascii"))}',
                    f'{inner}"score": {_json_text(r.decision.score, precision, inner)}',
                    f'{inner}"tie": {"true" if r.decision.tie else "false"}']
        fields.append(f'{pad}"decision": {_json_wrap(decision, pad)}')
    return "    " + _json_wrap(fields, "    ")


# --- fuse rendering ---------------------------------------------------------------

def _render_json(scenario, results, precision):
    tasks = _json_wrap([_json_task(r, scenario.frame.labels, precision) for r in results], "  ", "[]")
    head = _json_head(scenario.frame, scenario.model)
    return _json_wrap(head + [f'  "tasks": {tasks}'], "") + "\n"


def _render_table(scenario, results, precision):
    model = scenario.model
    exprs = expressions(model.frame.labels, "ascii", [c.bits for c in model.constraints])
    constraints = " [" + "; ".join(map("%s = 0".__mod__, exprs)) + "]" if model.constraints else ""
    lines = ["frame: " + " ".join(scenario.frame.labels), f"model: {model.kind}{constraints}"]
    # one compare table per compare task; a fuse task has one result
    for _, group in groupby(results, key=lambda r: id(r.task)):
        group = list(group)
        if group[0].task.kind == "compare":
            lines.extend(_compare_table(group, scenario.frame.labels, precision))
        else:
            for r in group:
                lines.extend(_single_block(r, scenario.frame.labels, precision))
    return "\n".join(lines) + "\n"


def _single_block(r, labels, precision):
    # only compare entries carry an error: a fuse task's rule error is raised
    lines = ["", f"rule: {r.report.rule}"]
    mass = r.report.mass.items()
    rows = dict(zip(expressions(labels, "ascii", [el.bits for el, _ in mass]),
                    [_format_value(v, precision) for _, v in mass]))
    keys = [] if r.pignistic is None else list(expressions(labels, "ascii", r.pignistic.bits))
    width = max(max(map(len, rows), default=0), max(map(len, keys), default=0), 7)
    row = f"  {{:<{width}}}  {{}}".format
    lines.append("mass:")
    lines += map(row, rows, rows.values())
    lines.append(f"conflict: {_format_value(r.report.conflict, precision)}")
    if r.bel is not None:
        lines.append("bel/pl:")
        lines += map(f"  {{:<{width}}}  {{}}  {{}}".format,
                     expressions(labels, "ascii", [el.bits for el in r.bel]),
                     _table_floats(r.bel.values(), precision), _table_floats(r.pl.values(), precision))
    if r.pignistic is not None:
        lines.append("pignistic:")
        lines += map(row, keys, _distinct_floats(r.pignistic.values, _table_floats, precision))
    if r.decision is not None:
        lines += map("decision: %s".__mod__, _decision_texts([r.decision], labels, precision))
    lines += map("warning: {}".format, _warnings(r))
    return lines


def _warnings(r):
    """A task's warnings: its rule's, then its pignistic transform's."""
    return [*r.report.warnings, *(() if r.pignistic is None else r.pignistic.warnings)]


def _decision_texts(decisions, labels, precision):
    """Decisions as the tables print them: choice, score and any tie."""
    choices = expressions(labels, "ascii", [d.choice.bits for d in decisions])
    return [f"{c} ({_format_value(d.score, precision)}){' (tie)' if d.tie else ''}"
            for c, d in zip(choices, decisions)]


def _table_floats(values, precision):
    """Floats as _format_value prints them, column-wise."""
    if precision is None:
        return map(repr, values)
    return map(format, values, repeat(f".{precision}f"))


def _distinct_floats(values, floats, precision):
    """A float column as the writer's column formatter floats (_json_floats
    or _table_floats) prints it at this precision. A long column holds few
    distinct values, as the pignistic one does, so each distinct value is
    formatted once, keyed by its bit pattern so that -0.0, 0.0 and each NaN
    keep their own text."""
    values = array("d", values)  # a copy of an array("d") is one memcpy
    patterns = memoryview(values).cast("B").cast("Q")
    distinct = dict(zip(patterns, values))
    texts = dict(zip(distinct, floats(distinct.values(), precision)))
    return map(texts.__getitem__, patterns)


def _compare_table(results, labels, precision):
    # union of focal rows across rules, one column per rule; rows that render
    # to the same expression share a line even when the rules key them by
    # different (free vs reduced) lattice elements, and take the place of
    # the least (cardinality, bits) among those elements
    masses = [() if r.error is not None else r.report.mass.items() for r in results]
    named = [list(zip(expressions(labels, "ascii", [el.bits for el, _ in m]), m)) for m in masses]
    keys = list(dict.fromkeys(k for *_, k in sorted(
        (el.bits.bit_count(), el.bits, k) for rows in named for k, (el, _) in rows)))
    cells = [{k: _format_value(v, precision) for k, (_, v) in rows} for rows in named]
    # a column per rule: its name, a cell per key and its conflict
    columns = [[r.rule, *(rows.get(k, "") for k in keys),
                "" if r.error is not None else _format_value(r.report.conflict, precision)]
               for r, rows in zip(results, cells)]
    floor = 0 if precision is None else precision + 2
    widths = [max(floor, *map(len, column)) for column in columns]
    row = f"{{:<{max([len(k) for k in keys] + [8])}}}" + "".join(f"  {{:>{w}}}" for w in widths)
    lines = ["", *map(row.format, ["element", *keys, "conflict"], *columns)]
    lines += [f"note: {r.rule}: {w}" for r in results for w in (
        r.report.warnings if r.error is None else [f"{type(r.error).__name__}: {r.error}"])]
    decided = [r for r in results if r.decision is not None]
    decided = [f"decision[{r.rule}]: {text}" for r, text in zip(
        decided, _decision_texts([r.decision for r in decided], labels, precision))]
    return lines + ([""] + decided if decided else [])


if __name__ == "__main__":
    sys.exit(main())
