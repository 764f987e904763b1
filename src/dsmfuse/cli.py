"""Command line front end.

    dsmfuse fuse --scenario demo.dsm [--rule dempster] [--compare] [--decide]
                 [--format table|json] [--precision 6|full] [--s3 components|union]
                 [--max-frame 5]
    dsmfuse lattice --n 3 [--model demo.dsm] [--format table|json] [--max-frame 5]

Exit codes: 0 success, 2 parse or validation error, 3 rule error,
4 resource limit (frame larger than --max-frame allows).
"""

import argparse
import json
import sys

from .errors import DsmError, FrameTooLarge, ParseError, ValidationError
from .lattice import Frame, Model, dsm_cardinality
from .mass import format_set
from .neutro import NeutrosophicTriple
from .scenario import COMPARE_RULES, load_scenario, run

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
    if value < 0:
        raise argparse.ArgumentTypeError("precision must be nonnegative")
    return value


def build_parser():
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except DsmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RULE


def _check_frame_budget(frame, max_frame):
    if frame.n > max_frame:
        raise FrameTooLarge(
            f"frame has {frame.n} hypotheses; raise --max-frame (at most 6) to allow it"
        )


def _cmd_fuse(args):
    scenario = load_scenario(args.scenario)
    _check_frame_budget(scenario.frame, min(args.max_frame, 6))
    results = run(scenario, rule=args.rule, compare=args.compare, decide=args.decide,
                  s3=args.s3)
    out = _render_json(scenario, results, args.precision) if args.format == "json" \
        else _render_table(scenario, results, args.precision)
    print(out, end="")
    return EXIT_OK


def _lattice_rows(model):
    """Yield (canonical expression, cardinality) per distinct element."""
    for el in model.iter_alive_elements():
        yield (el.expr(style="ascii") or "{}", dsm_cardinality(model, el))


def _cmd_lattice(args):
    if args.model:
        scenario = load_scenario(args.model)
        frame, model = scenario.frame, scenario.model
        if args.n is not None and args.n != frame.n:
            raise ValidationError([f"--n {args.n} disagrees with the scenario frame ({frame.n})"])
    elif args.n is not None:
        frame = Frame(tuple(f"th{i}" for i in range(1, args.n + 1)))
        model = Model.free(frame)
    else:
        raise ValidationError(["lattice needs --n or --model"])
    _check_frame_budget(frame, min(args.max_frame, 6))
    if args.format == "json":
        return _stream_lattice_json(frame, model)
    return _stream_lattice_table(model)


def _stream_lattice_json(frame, model):
    """Write the listing as it is produced, matching json.dumps(doc, indent=2)."""
    out = sys.stdout
    head = json.dumps({"frame": list(frame.labels), "model": _model_doc(model)},
                      indent=2)
    out.write(head[:-2])
    out.write(',\n  "elements": [')
    count = 0
    for i, (e, c) in enumerate(_lattice_rows(model)):
        item = json.dumps({"index": i, "expression": e, "cardinality": c}, indent=2)
        body = "".join("    " + ln for ln in item.splitlines(keepends=True))
        out.write(("\n" if count == 0 else ",\n") + body)
        count += 1
    out.write("]" if count == 0 else "\n  ]")
    out.write(f',\n  "count": {count}\n}}\n')
    return EXIT_OK


def _stream_lattice_table(model):
    # first pass sizes the expression column, second pass prints; rendering
    # twice keeps the n=6 listing (7.8 million rows) out of memory
    width = len("expression")
    count = 0
    for e, _ in _lattice_rows(model):
        if len(e) > width:
            width = len(e)
        count += 1
    out = sys.stdout
    out.write(f"{'index':>5}  {'expression':<{width}}  cardinality\n")
    for i, (e, c) in enumerate(_lattice_rows(model)):
        out.write(f"{i:>5}  {e:<{width}}  {c}\n")
    out.write(f"{count} elements\n")
    return EXIT_OK


# --- value formatting -------------------------------------------------------------

def _fmt(value, precision):
    if isinstance(value, float):
        return repr(value) if precision is None else f"{value:.{precision}f}"
    if isinstance(value, NeutrosophicTriple):
        t, i, f = value.as_points()
        return f"({_fmt(t, precision)}, {_fmt(i, precision)}, {_fmt(f, precision)})"
    return format_set(value, precision)


def _json_value(value, precision):
    if isinstance(value, float):
        return value if precision is None else round(value, precision)
    if isinstance(value, NeutrosophicTriple):
        return [_json_value(v, precision) for v in value.as_points()]
    return format_set(value, precision)


def _model_doc(model):
    return {
        "kind": model.kind,
        "constraints": [c.expr(style="ascii") for c in model.constraints],
    }


def _mass_rows(report, precision, renderer):
    return {
        (el.expr(style="ascii") or "{}"): renderer(v, precision)
        for el, v in report.mass.items()
    }


# --- fuse rendering ---------------------------------------------------------------

def _render_json(scenario, results, precision):
    tasks = []
    for r in results:
        entry = {"rule": r.report.rule if r.report is not None else r.rule}
        if r.error is not None:
            entry["error"] = f"{type(r.error).__name__}: {r.error}"
            tasks.append(entry)
            continue
        entry["mass"] = _mass_rows(r.report, precision, _json_value)
        entry["conflict"] = _json_value(r.report.conflict, precision)
        entry["warnings"] = list(r.report.warnings)
        if r.bel is not None:
            entry["bel"] = {el.expr(style="ascii") or "{}": _json_value(v, precision)
                            for el, v in r.bel.items()}
            entry["pl"] = {el.expr(style="ascii") or "{}": _json_value(v, precision)
                           for el, v in r.pl.items()}
        if r.pignistic is not None:
            entry["pignistic"] = {el.expr(style="ascii") or "{}": _json_value(v, precision)
                                  for el, v in r.pignistic.items()}
            entry["warnings"] += list(r.pignistic.warnings)
        if r.decision is not None:
            entry["decision"] = {
                "choice": r.decision.choice.expr(style="ascii"),
                "score": _json_value(r.decision.score, precision),
                "tie": r.decision.tie,
            }
        tasks.append(entry)
    doc = {
        "frame": list(scenario.frame.labels),
        "model": _model_doc(scenario.model),
        "tasks": tasks,
    }
    return json.dumps(doc, indent=2) + "\n"


def _render_table(scenario, results, precision):
    lines = []
    lines.append("frame: " + " ".join(scenario.frame.labels))
    model_text = scenario.model.kind
    if scenario.model.constraints:
        model_text += " [" + "; ".join(f"{c.expr(style='ascii')} = 0"
                                       for c in scenario.model.constraints) + "]"
    lines.append("model: " + model_text)
    if len(results) > 1 and [r.rule for r in results] == list(COMPARE_RULES):
        lines.extend(_compare_table(results, precision))
    else:
        for r in results:
            lines.extend(_single_block(r, precision))
    return "\n".join(lines) + "\n"


def _single_block(r, precision):
    name = r.report.rule if r.report is not None else r.rule
    lines = ["", f"rule: {name}"]
    if r.error is not None:
        lines.append(f"error: {type(r.error).__name__}: {r.error}")
        return lines
    rows = _mass_rows(r.report, precision, _fmt)
    labels = list(rows)
    if r.pignistic is not None:
        labels += [el.expr(style="ascii") or "{}" for el, _ in r.pignistic.items()]
    width = max([len(k) for k in labels] + [7])
    lines.append("mass:")
    for k, v in rows.items():
        lines.append(f"  {k:<{width}}  {v}")
    lines.append(f"conflict: {_fmt(r.report.conflict, precision)}")
    if r.bel is not None:
        lines.append("bel/pl:")
        for el in r.bel:
            k = el.expr(style="ascii") or "{}"
            lines.append(f"  {k:<{width}}  {_fmt(r.bel[el], precision)}  {_fmt(r.pl[el], precision)}")
    if r.pignistic is not None:
        lines.append("pignistic:")
        for el, v in r.pignistic.items():
            k = el.expr(style="ascii") or "{}"
            lines.append(f"  {k:<{width}}  {_fmt(v, precision)}")
    if r.decision is not None:
        tie = " (tie)" if r.decision.tie else ""
        lines.append(f"decision: {r.decision.choice.expr(style='ascii')}"
                     f" ({_fmt(r.decision.score, precision)}){tie}")
    warnings = list(r.report.warnings)
    if r.pignistic is not None:
        warnings += list(r.pignistic.warnings)
    for w in warnings:
        lines.append(f"warning: {w}")
    return lines


def _compare_table(results, precision):
    # union of focal rows across rules, one column per rule; rows that render
    # to the same expression share a line even when the rules key them by
    # different (free vs reduced) lattice elements
    order = {}
    per_rule = []
    for r in results:
        if r.error is not None:
            per_rule.append(None)
            continue
        rows = {}
        for el, v in r.report.mass.items():
            label = el.expr(style="ascii") or "{}"
            rows[label] = _fmt(v, precision)
            sort_key = (el.bits.bit_count(), el.bits)
            if label not in order or sort_key < order[label]:
                order[label] = sort_key
        per_rule.append(rows)
    labels = sorted(order, key=lambda k: order[k])
    names = [r.rule for r in results]
    label_w = max([len(k) for k in labels] + [8])
    col_w = [max(len(n), precision + 2 if precision else 12) for n in names]
    header = f"{'element':<{label_w}}"
    for n, w in zip(names, col_w):
        header += f"  {n:>{w}}"
    lines = ["", header]
    for label in labels:
        line = f"{label:<{label_w}}"
        for rows, w in zip(per_rule, col_w):
            cell = "" if rows is None else rows.get(label, "")
            line += f"  {cell:>{w}}"
        lines.append(line)
    conflict = f"{'conflict':<{label_w}}"
    for r, w in zip(results, col_w):
        cell = "" if r.error is not None else _fmt(r.report.conflict, precision)
        conflict += f"  {cell:>{w}}"
    lines.append(conflict)
    for r in results:
        if r.error is not None:
            lines.append(f"note: {r.rule}: {type(r.error).__name__}: {r.error}")
        for w in r.report.warnings if r.report else ():
            lines.append(f"note: {r.rule}: {w}")
    if any(r.decision is not None for r in results):
        lines.append("")
        for r in results:
            if r.decision is not None:
                tie = " (tie)" if r.decision.tie else ""
                lines.append(f"decision[{r.rule}]: {r.decision.choice.expr(style='ascii')}"
                             f" ({_fmt(r.decision.score, precision)}){tie}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
