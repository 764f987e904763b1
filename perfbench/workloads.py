"""Seeded request pools for the benchmark workloads.

A request is one `dsmfuse` command line. `build(workload, seed, out_dir,
scenario_dir)` writes the scenario files a pool needs into `out_dir` and
returns the pool: a list of `Request`s in a seeded order. The program under test only ever
sees those files; nothing here imports it.

Cost stability across seeds: every synthetic pool is built from a fixed
grid of shapes (frame size, model, constraint template, source and focal
counts). The seed permutes the hypotheses, picks the focal elements and
draws the masses, so tuple counts and lattice sizes are the same for every
seed while the values and landing sites differ.

Focal elements come from the model's alive elements, except that each
focal slot of a shafer or hybrid source lands on an element the model
forbids with probability FORBIDDEN_SHARE, so the transfer rule's
all-forbidden and partial branches run. Drawing everything from the free
lattice instead makes dempster end in TotalConflict on most multi-source
shafer inputs.
"""

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cli_golden", "conj_many_sources", "wide_lattice", "imprecise_triple")

FORBIDDEN_SHARE = 0.125

BUNDLED = (
    "four_hypotheses_free",
    "four_hypotheses_shafer",
    "high_conflict",
    "imprecise_exclusive",
    "imprecise_two_experts",
    "three_sources",
    "triple_beliefs",
    "triple_exclusive",
    "vacuous_pignistic",
)

TNORMS = ("algebraic", "bounded", "min")
TCONORMS = ("algebraic", "bounded", "max")

# Constraint templates per frame size: each constraint is the intersection
# of the listed (1-based) hypotheses. The seed permutes the hypotheses, which
# keeps the number of alive elements fixed.
HYBRID = {
    2: [[(1, 2)]],
    3: [[(1, 2)], [(1, 2), (1, 3)], [(1, 2, 3)]],
    4: [[(1, 2)], [(1, 2), (3, 4)], [(1, 2, 3)], [(1, 2), (2, 3), (3, 4)]],
    5: [[(1, 2)], [(1, 2), (3, 4)], [(1, 2, 3)], [(1, 2), (2, 3), (3, 4), (4, 5)],
        [(1, 2), (1, 3), (1, 4), (1, 5)], [(1, 2), (1, 3), (2, 3), (4, 5)]],
}

# Pool sizes (144, 15 and 15 requests) keep the 90th percentile inside one
# request's block of samples rather than on the edge between two requests
# of very different cost. Drawing each conj shape several times smooths
# the latency distribution, so its percentiles depend less on the seed.
#
# conj_many_sources: (n, model kind, hybrid template index, sources, focal per source).
# Each shape is drawn CONJ_DRAWS times; products of focal counts stay well
# below 10^4 tuples per request.
CONJ_SHAPES = (
    (3, "free", None, 4, 6),
    (4, "free", None, 3, 8),
    (5, "free", None, 5, 4),
    (5, "free", None, 3, 7),
    (3, "shafer", None, 5, 4),
    (4, "shafer", None, 4, 6),
    (5, "shafer", None, 4, 5),
    (3, "hybrid", 1, 4, 6),
    (4, "hybrid", 3, 4, 5),
    (5, "hybrid", 1, 3, 8),
    (4, "hybrid", 0, 5, 4),
)
CONJ_DRAWS = 4
CONJ_RULES = {
    "free": ("dsm_classic", "disjunctive"),
    "shafer": ("dsm_hybrid", "dempster", "smets", "yager"),
    "hybrid": ("dsm_hybrid", "dempster", "smets", "yager"),
}

# wide_lattice decide requests: (model kind, hybrid template index, focal per source).
WIDE_DECIDE = (("free", None, 3), ("hybrid", 0, 3), ("hybrid", 1, 2), ("hybrid", 2, 3),
               ("hybrid", 3, 2), ("hybrid", 4, 3), ("hybrid", 5, 2))
# wide_lattice listings of hybrid models, by template index.
WIDE_LISTINGS = (0, 2, 4)

# imprecise_triple: (n, model kind, template index, sources, focal per source).
IMPRECISE_SHAPES = (
    (2, "free", None, 4, 3),
    (3, "free", None, 4, 4),
    (3, "hybrid", 0, 4, 3),
    (4, "hybrid", 1, 4, 4),
    (3, "shafer", None, 4, 3),
)
TRIPLE_SHAPES = ((3, "free", None, 6), (3, "hybrid", 0, 5), (4, "hybrid", 1, 7), (4, "free", None, 8),
                 (3, "shafer", None, 6))


@dataclass
class Request:
    """One command line plus what the checker needs to judge its output.

    kind is "golden" (compare with golden bytes), "listing" (a lattice
    listing: row count and digest) or "fuse" (JSON report, full precision).
    """

    rid: str
    argv: list
    kind: str
    golden: str = None
    rule: str = None
    tuples: int = 0
    listing: dict = field(default_factory=dict)


# --- lattice arithmetic, independent of the program --------------------------

def term_bits(n, mask):
    """Bitset of the intersection of the hypotheses in mask: every part
    (nonempty subset s of hypotheses, bit s - 1) containing all of them."""
    bits = 0
    for s in range(1, 1 << n):
        if s & mask == mask:
            bits |= 1 << (s - 1)
    return bits


def dead_parts(n, kind, constraints):
    """Parts a model empties: every overlap under shafer, plus constraints."""
    dead = 0
    if kind == "shafer":
        for s in range(1, 1 << n):
            if bin(s).count("1") >= 2:
                dead |= 1 << (s - 1)
    for c in constraints:
        dead |= term_bits(n, c)
    return dead


def upsets(n):
    """Bitsets of every element of the free lattice over n hypotheses, the
    empty element included: the upward-closed sets of parts, built part by
    part from the largest parts down."""
    out = [0]
    for s in sorted(range(1, 1 << n), key=lambda s: -bin(s).count("1")):
        supers = [s | (1 << j) for j in range(n) if not s >> j & 1]
        # s may join an upset only once every part just above it is there
        out += [b | 1 << (s - 1) for b in out if all(b >> (t - 1) & 1 for t in supers)]
    return out


def alive_count(n, dead):
    """Distinct elements a model keeps, the empty element included."""
    return len({b & ~dead for b in upsets(n)})


# --- drawing -----------------------------------------------------------------

def _labels(n):
    return [f"th{i}" for i in range(1, n + 1)]


def _permuted_constraints(rng, n, template):
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for term in template:
        mask = 0
        for h in term:
            mask |= 1 << perm[h - 1]
        out.append(mask)
    return out


def _expr(rng, n, sizes):
    """Union of intersections of random hypotheses, one per term size:
    (text, free-lattice bitset)."""
    terms = [sum(1 << h for h in rng.sample(range(n), min(size, n))) for size in sizes]
    bits = 0
    for t in terms:
        bits |= term_bits(n, t)
    labels = _labels(n)
    texts = [" & ".join(labels[h] for h in range(n) if t >> h & 1) for t in terms]
    if len(texts) > 1:
        texts = [f"({t})" if "&" in t else t for t in texts]
    return " | ".join(texts), bits


def _draw_focal(rng, n, dead, count):
    """count distinct focal expressions. Under a model that forbids
    anything, each slot is forbidden with probability FORBIDDEN_SHARE; a
    slot falls back to an alive element when no unused forbidden one turns
    up."""
    chosen = []
    keys = set()
    for _ in range(count):
        forbidden = dead != 0 and rng.random() < FORBIDDEN_SHARE
        for attempt in range(10_000):
            if forbidden and attempt < 100:
                text, bits = _expr(rng, n, [rng.randint(2, n)])
                key = ("dead", bits) if not bits & ~dead else None
            else:
                sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
                text, bits = _expr(rng, n, sizes)
                key = ("alive", bits & ~dead) if bits & ~dead else None
            if key is not None and key not in keys:
                break
        else:
            raise ValueError(f"cannot draw {count} distinct focal elements")
        keys.add(key)
        chosen.append(text)
    return chosen


def _split_unit(rng, count):
    """count positive masses with six decimals that sum to exactly 1."""
    cuts = sorted(rng.sample(range(1, 1_000_000), count - 1))
    edges = [0] + cuts + [1_000_000]
    return [edges[i + 1] - edges[i] for i in range(count)]


def _fmt6(micro):
    return f"{micro / 1e6:.6f}"


def _imprecise_value(rng, micro, slot):
    """A set containing the point micro/1e6. The slot fixes the shape, so
    piece counts match across seeds: an interval around the point with open
    or closed ends, the same joined with a second point, or the point."""
    c = micro / 1e6
    shape = slot % 3
    if shape == 2:
        return "{" + _fmt6(micro) + "}"
    lo, hi = max(0.0, c - 0.02), min(1.0, c + 0.01)
    # an end may be open only when the point is not on it
    left = "(" if lo < c and rng.random() < 0.5 else "["
    right = ")" if hi > c and rng.random() < 0.5 else "]"
    text = f"{left}{lo:.6f},{hi:.6f}{right}"
    if shape == 1:
        text += "u{" + _fmt6(rng.randint(0, 1_000_000)) + "}"
    return text


def _triple_value(rng):
    return "(" + ", ".join(_fmt6(rng.randint(0, 1_000_000)) for _ in range(3)) + ")"


def _scenario_text(n, kind, constraints, sources, tasks=()):
    labels = _labels(n)
    lines = ["frame: " + " ".join(labels), f"model: {kind}"]
    for c in constraints:
        lines.append("constraint: " + " & ".join(labels[h] for h in range(n) if c >> h & 1) + " = 0")
    for i, focal in enumerate(sources, start=1):
        lines.append(f"source m{i}:")
        lines += [f"  {expr} = {value}" for expr, value in focal]
    lines += [f"task: {t}" for t in tasks]
    return "\n".join(lines) + "\n"


def _model(rng, n, kind, template):
    constraints = _permuted_constraints(rng, n, HYBRID[n][template]) if kind == "hybrid" else []
    return constraints, dead_parts(n, kind, constraints)


def _precise_sources(rng, n, dead, sources, focal):
    out = []
    for _ in range(sources):
        exprs = _draw_focal(rng, n, dead, focal)
        out.append(list(zip(exprs, map(_fmt6, _split_unit(rng, focal)))))
    return out


# --- workloads -----------------------------------------------------------------

def _fuse_argv(path, *extra):
    return ["fuse", "--scenario", str(path), *extra, "--format", "json", "--precision", "full"]


def _cli_golden(out_dir, scenario_dir):
    pool = []
    for name in BUNDLED:
        path = out_dir / f"{name}.dsm"
        shutil.copyfile(scenario_dir / f"{name}.dsm", path)
        pool.append(Request(name, ["fuse", "--scenario", str(path)], "golden",
                            golden=f"{name}.txt"))
    three = out_dir / "three_sources.dsm"
    pool.append(Request("three_sources.json", ["fuse", "--scenario", str(three), "--format", "json"],
                        "golden", golden="three_sources.json"))
    pool.append(Request("lattice_n3", ["lattice", "--n", "3"], "golden", golden="free_n3.lattice.txt"))
    pool.append(Request("lattice_vacuous", ["lattice", "--model", str(out_dir / "vacuous_pignistic.dsm")],
                        "golden", golden="vacuous_pignistic.lattice.txt"))
    return pool


def _conj_many_sources(rng, out_dir):
    pool = []
    for i, (n, kind, template, sources, focal) in enumerate(CONJ_SHAPES * CONJ_DRAWS):
        constraints, dead = _model(rng, n, kind, template)
        srcs = _precise_sources(rng, n, dead, sources, focal)
        path = out_dir / f"conj{i}.dsm"
        path.write_text(_scenario_text(n, kind, constraints, srcs))
        for rule in CONJ_RULES[kind]:
            pool.append(Request(f"conj{i}.{rule}", _fuse_argv(path, "--rule", rule), "fuse",
                                rule=rule, tuples=focal ** sources))
    return pool


def _wide_lattice(rng, out_dir):
    n = 5
    pool = []
    for i, (kind, template, focal) in enumerate(WIDE_DECIDE):
        constraints, dead = _model(rng, n, kind, template)
        srcs = _precise_sources(rng, n, dead, 2, focal)
        path = out_dir / f"wide{i}.dsm"
        path.write_text(_scenario_text(n, kind, constraints, srcs))
        pool.append(Request(f"wide{i}.decide", _fuse_argv(path, "--rule", "dsm_hybrid", "--decide"),
                            "fuse", rule="dsm_hybrid", tuples=focal * focal))
    free_rows = len(upsets(n))
    for fmt in ("table", "json"):
        pool.append(Request(f"lattice_n5.{fmt}", ["lattice", "--n", "5", "--format", fmt], "listing",
                            listing={"rows": free_rows, "format": fmt}))
    for template in WIDE_LISTINGS:
        constraints, dead = _model(rng, n, "hybrid", template)
        path = out_dir / f"model{template}.dsm"
        # a listing reads only the frame and model; one source keeps the file valid
        path.write_text(_scenario_text(n, "hybrid", constraints, [[("th1", "1.000000")]]))
        rows = alive_count(n, dead)
        for fmt in ("table", "json"):
            pool.append(Request(f"model{template}.{fmt}", ["lattice", "--model", str(path), "--format", fmt],
                                "listing", listing={"rows": rows, "format": fmt}))
    return pool


def _imprecise_triple(rng, out_dir):
    pool = []
    for i, (n, kind, template, sources, focal) in enumerate(IMPRECISE_SHAPES):
        constraints, dead = _model(rng, n, kind, template)
        srcs = []
        for _ in range(sources):
            exprs = _draw_focal(rng, n, dead, focal)
            masses = _split_unit(rng, focal)
            srcs.append([(e, _imprecise_value(rng, v, j)) for j, (e, v) in enumerate(zip(exprs, masses))])
        path = out_dir / f"imprecise{i}.dsm"
        path.write_text(_scenario_text(n, kind, constraints, srcs))
        for rule in ("dsm_classic", "dsm_hybrid"):
            pool.append(Request(f"imprecise{i}.{rule}", _fuse_argv(path, "--rule", rule), "fuse",
                                rule=rule, tuples=focal ** sources))
    for i, (n, kind, template, focal) in enumerate(TRIPLE_SHAPES):
        constraints, dead = _model(rng, n, kind, template)
        srcs = [[(e, _triple_value(rng)) for e in _draw_focal(rng, n, dead, focal)] for _ in range(2)]
        tasks = [f"nnorm norm={k}" for k in TNORMS] + [f"nconorm norm={k}" for k in TCONORMS]
        path = out_dir / f"triple{i}.dsm"
        path.write_text(_scenario_text(n, kind, constraints, srcs, tasks))
        pool.append(Request(f"triple{i}", _fuse_argv(path), "fuse", rule="triple",
                            tuples=len(tasks) * focal * focal))
    return pool


def build(workload, seed, out_dir, scenario_dir):
    """Write the workload's scenario files for this seed and return its pool
    in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "cli_golden":
        pool = _cli_golden(out_dir, Path(scenario_dir))
    elif workload == "conj_many_sources":
        pool = _conj_many_sources(rng, out_dir)
    elif workload == "wide_lattice":
        pool = _wide_lattice(rng, out_dir)
    elif workload == "imprecise_triple":
        pool = _imprecise_triple(rng, out_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(pool)
    return pool
