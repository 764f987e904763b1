"""Combination rules for precise and imprecise mass functions.

Every rule here, and the triple fusions in neutro, sums the values of the
focal tuples (one focal item per source, in (cardinality, bit pattern)
order), each the product of its items or a T-norm or T-conorm of them, on
landing sites. A plan `(facts, step, land)` says where: `facts(el)` is what
landing needs of one focal element; `step(state, fact)` folds it into a
prefix's state (a one-item prefix's state is its fact); `land(state)` maps
a tuple's final state to `(key, weight, dead)`. The value (times `weight`
unless None) is added on the int bits `key`, or handed back as dropped when
`key` is None, and counts as conflict when `dead`. Facts, states and
keys are ints (bitsets, tuples of them, or None): no plan builds an
element, so the loops' dicts hash them at C speed. The plans:

- transfer: a live intersection keeps its mass (the hybrid rule's S1); a
  forbidden one goes to the union of the hypotheses involved (S3) or, when
  every component is itself forbidden, to the union of their component
  hypotheses (S2), falling back to total ignorance. The empty element,
  which may carry a speck of mass, is forbidden and names no hypothesis.
  On the free lattice this is the classic rule. Its states keep raw bits,
  as S3 reads the minimal parts of the raw meet;
- meet and join fold alive bitsets, the focal bitsets reduced by the
  model (reduction commutes with & and |), so their cost grows with the
  reduced lattice's distinct states. An empty meet is conflict and lands
  on the plan's dead target: nowhere for dempster, which normalizes it
  away, the empty element (0) for smets and total ignorance for yager; a
  join lands each tuple on the union of its focal elements;
- pair: the state is the two raw focal bitsets, as no third source folds
  onto them. dubois_prade retries the union of a forbidden intersection
  and drops the mass whose union is forbidden too; the degree-weighted
  rules weight each pair by exact ratios of alive part counts.

Two loops run the plans. `_fold` runs every precise product rule:
dsm_classic, dsm_hybrid, dempster, smets, yager, disjunctive,
dubois_prade, the three degree-weighted rules and tnorm[algebraic]. A
value is a float or a Fraction. Each source's values are scaled exactly
onto ints over one common denominator, so every product and sum is an
exact int and Fractions fuse exactly; the fold combines one source at a
time over the distinct states and lands each final state once, on int
keys. Each fused mass, conflict
and dropped mass is rounded once, by int true division, which rounds
correctly. So the results are the exact sums rounded once, the same
whatever the order of the sources and of the focal items, and the cost
grows with the distinct states, not with the tuples. Degree weights are
exact ratios of cardinalities, and normalizations divide exact sums.
Dempster divides each alive sum by the exact alive total, not by 1 - k12:
the two differ when the inputs do not sum to exactly 1 in binary, and only
the first gives a lone surviving element exactly 1. Dempster refuses
(TotalConflict) when the alive total is at most 1e-12.

`_walk` runs neutro's triple fusions and what does not distribute over
+: the min and bounded T-norms, every T-conorm, and set-valued imprecise
masses, whose arithmetic is only subdistributive ({1}, {1}, {0,1} give (A+B)*C = {0,2} but A*C+B*C =
{0,1,2}). It visits every tuple, depth first on an explicit stack of
prefixes: each prefix's state and kernel value are computed once, the stack
holds at most the sources' focal counts summed, each distinct final state
is landed once, and every tuple adds its own left-folded value in
lexicographic tuple order. Its value algebra is a reader (focal value to
walk value), the kernel, an add and a zero: floats walk under * and +,
subunitary sets as tuples of plain pieces under mass's set product and sum
(each fused set built once, at the end), and neutro's point triples as
plain 3-tuples under the kernel and + componentwise: floats, or for the
algebraic N-norm exact ints over one common denominator, whose sums are
exact as the fold's are. Imprecise sources whose every value is a point
take the fold and come back as point sets, so they reproduce the precise
rules bit for bit.

Both loops hand back the same result: sums on int keys, the conflict and
the dropped mass (none on the walk, whose plans weigh and drop nothing),
each standing for itself over a denominator (1 for the walk). `_report`
is where they become elements and a precise rule's report, each sum
divided once; set-valued sums and neutro's triples take their elements
from the same int keys.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import add, and_, attrgetter, mul, or_

from .errors import (
    DegenerateNormalization,
    FewerThanTwoSources,
    FrameMismatch,
    NotASubset,
    TotalConflict,
    ValidationError,
)
from .lattice import LatticeElement, Model, _close_up, _component_union
from .mass import ImpreciseMass, PreciseMass, SubunitarySet, is_admissible, lift
from .mass import _of, _set_product, _set_sum

_NEAR_ZERO = 1e-12

# Where a forbidden intersection's mass goes: the union of the hypotheses
# its canonical form mentions, or the plain union of the focal elements.
S3_COMPONENTS = "components"
S3_UNION = "union"


@dataclass(frozen=True)
class FusionReport:
    """Outcome of one combination: the fused mass plus bookkeeping."""

    rule: str
    model: Model
    mass: object
    conflict: object
    warnings: tuple = ()

    def mass_of(self, element):
        """Fused mass of an element, looked up modulo the model (the output
        is keyed by reduced elements)."""
        return self.mass.mass(self.model.reduce(element))


# --- shared plumbing ---------------------------------------------------------

def _prepare(sources, rule, model=None, wanted=PreciseMass, exactly=None):
    """Check the sources, each a wanted instance, and the model against
    their frame; a model that empties the whole frame is refused. Returns
    the model (free when none is given) and the warnings."""
    if len(sources) < 2:
        raise FewerThanTwoSources(f"{rule} needs at least two sources")
    if exactly is not None and len(sources) != exactly:
        raise ValidationError([f"{rule} combines exactly {exactly} sources, got {len(sources)}"])
    frame = sources[0].frame
    warnings = []
    for i, m in enumerate(sources):
        if not isinstance(m, wanted):
            raise TypeError(f"{rule} expects {wanted.__name__}, got {type(m).__name__}")
        if m.frame != frame:
            raise FrameMismatch("sources live on different frames")
        problems = m.validate()
        if problems:
            raise ValidationError([f"source {i + 1}: {p}" for p in problems])
        if wanted is ImpreciseMass and not is_admissible(m):
            warnings.append(f"source {i + 1} is not admissible; fusing anyway")
    if model is None:
        model = Model.free(frame)
    elif model.frame != frame:
        raise FrameMismatch("model frame differs from the sources' frame")
    model.check_not_degenerate()
    return model, warnings


def _focal_items(m):
    if isinstance(m, ImpreciseMass):
        return [(el, s) for el, s in m.items() if not (s.is_point and s.as_point() == 0.0)]
    return [(el, v) for el, v in m.items() if v != 0.0]


def _walk(sources, plan, kernel=mul, add=add, zero=0.0, read=None):
    """Sum every focal tuple's value on its landing site, source by source,
    under the value algebra kernel, add, zero and read (None keeps a value).

    Returns what _fold returns, over den 1: (sums per int key, conflict,
    zero, 1), sums as walk values. The plans walked here (transfer and
    join) land every tuple on a key, unweighted, so nothing is dropped.
    """
    facts, step, land = plan
    first, *middle, last = [[(facts(el), v if read is None else read(v))
                             for el, v in _focal_items(m)] for m in sources]
    landed, rows, acc = {}, {}, {}
    conflict = zero
    # (prefix state, value, middle sources folded); reversed pops in tuple order
    stack = [(s, v, 0) for s, v in reversed(first)]
    while stack:
        state, v, d = stack.pop()
        if d < len(middle):
            stack += [(step(state, f), kernel(v, w), d + 1) for f, w in reversed(middle[d])]
            continue
        # the landings of the last source's items after this prefix state
        row = rows.get(state)
        if row is None:
            row = rows[state] = []
            for fact, w in last:
                final = step(state, fact)
                if final not in landed:
                    landed[final] = land(final)
                row.append((*landed[final], w))
        for key, _, dead, w in row:
            x = kernel(v, w)
            if dead:
                conflict = add(conflict, x)
            acc[key] = add(acc.get(key, zero), x)
    return acc, conflict, zero, 1


def _over_one_den(values):
    """values as ints over one common denominator, exactly: (ints, den),
    den the lcm of the denominators as_integer_ratio gives. A float's is a
    power of two, so for floats den is the largest one and each int its
    numerator shifted up; a Fraction brings its own denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*[d for _, d in ratios])
    return [(den // d) * n for n, d in ratios], den


def _fold(sources, plan):
    """Sum every focal tuple's product on its landing site, exactly.

    A value is a float or a Fraction. Each source's nonzero values become
    ints over one common denominator (_over_one_den), exactly; a fixed
    2**S scale would overflow near subnormals. The sources are folded in
    one at a time over a dict of distinct states and their exact int sums,
    then each final state is landed once; a weight from land is an int or
    a Fraction, and only weights bring a further lcm. Returns (sums per
    int key, conflict, mass dropped on key None, den): ints, each standing
    for itself over den; a conflict or dropped mass with no tuple is the
    int 0.
    """
    facts, step, land = plan
    states, den = None, 1
    for m in sources:
        focal = _focal_items(m)
        ints, d = _over_one_den([v for _, v in focal])
        den *= d
        items = [(facts(el), n) for (el, _), n in zip(focal, ints)]
        folded = {}
        if states is None:
            for fact, n in items:
                folded[fact] = folded.get(fact, 0) + n
        else:
            for state, a in states.items():
                for fact, b in items:
                    final = step(state, fact)
                    folded[final] = folded.get(final, 0) + a * b
        states = folded
    landed = [(*land(state), x) for state, x in states.items()]
    scale = lcm(*[w.denominator for _, w, _, _ in landed if w is not None])
    if scale != 1:
        landed = [(key, w, dead, x * scale) for key, w, dead, x in landed]
    acc, conflict, lost = {}, 0, 0
    for key, weight, dead, x in landed:
        value = x if weight is None else x * weight.numerator // weight.denominator
        if dead:
            conflict += x
        if key is None:
            lost += value
        else:
            acc[key] = acc.get(key, 0) + value
    return acc, conflict, lost, scale * den


def _report(rule, model, warnings, sums, total=None, allows_empty_focal=False):
    """The report of a loop's (sums, conflict, lost, den): each int key
    becomes an element, its sum divided by total (den unless given), and
    the conflict is divided by den. On the fold's ints this is int true
    division, so every result is its exact sum rounded once."""
    acc, conflict, _, den = sums
    frame, total = model.frame, den if total is None else total
    mass = PreciseMass(frame, {LatticeElement(frame, k): v / total for k, v in acc.items()},
                       allows_empty_focal)
    return FusionReport(rule, model, mass, conflict / den, tuple(warnings))


# --- plans -------------------------------------------------------------------------

# The two-source rules land the pair of focal bitsets itself.
_PAIR = (attrgetter("bits"), lambda x, y: (x, y))


def _transfer_plan(model, s3_target):
    """The state is the raw meet, the OR of the focal elements' component
    unions while every one is forbidden (else None), and what the s3 target
    reads: the meet of the upward closures for components, the join for
    union; any other s3 target is refused."""
    if s3_target not in (S3_COMPONENTS, S3_UNION):
        raise ValidationError([f"unknown s3 target {s3_target!r}"])
    n, alive = model.frame.n, ~model.emptied
    it = model.reduce(model.frame.total_ignorance()).bits
    components = s3_target == S3_COMPONENTS
    fold = and_ if components else or_

    def facts(el):
        bits = el.bits
        forbidden = None if bits & alive else _component_union(n, bits)
        return bits, forbidden, _close_up(n, bits) if components else bits

    def step(a, b):
        forbidden = None if a[1] is None or b[1] is None else a[1] | b[1]
        return a[0] & b[0], forbidden, fold(a[2], b[2])

    def land(state):
        meet, forbidden, target = state
        if meet & alive:
            return meet & alive, None, False
        if forbidden is not None:
            target = forbidden
        elif components:
            # Focal elements keyed by reduced representatives have lost their
            # dead parts, so the raw meet can bottom out even though the free
            # meet never does; the canonical form needs the free meet.
            target = _component_union(n, meet or target)
        return (target & alive or it), None, True

    return facts, step, land


def _meet_plan(model, dead=None):
    """On alive facts: a nonempty meet keeps its mass; an empty one is
    conflict and lands on dead: None (nowhere), 0 (the empty element) or a bitset."""
    alive = ~model.emptied
    return (lambda el: el.bits & alive, and_,
            lambda meet: (meet, None, False) if meet else (dead, None, True))


def _join_plan(model):
    alive = ~model.emptied
    return lambda el: el.bits & alive, or_, lambda join: (join, None, False)


# --- classic and transfer rules ----------------------------------------------

def dsm_classic(sources):
    """Conjunctive consensus on the free lattice; no conflict but the products
    of a speck of mass on the empty element, which land on total ignorance.
    Sources are all precise or all imprecise."""
    return _dsm_rule("dsm_classic", None, sources, S3_COMPONENTS)


def dsm_hybrid(model, sources, s3_target=S3_COMPONENTS):
    """Conjunctive consensus with forbidden mass rerouted under the model.
    Sources are all precise or all imprecise."""
    return _dsm_rule("dsm_hybrid", model, sources, s3_target)


# The imprecise spellings are the same rules on imprecise sources only;
# reports on imprecise sources carry them, whichever spelling fused them.
def dsm_classic_imprecise(sources):
    return _dsm_rule("dsm_classic", None, sources, S3_COMPONENTS, True)


def dsm_hybrid_imprecise(model, sources, s3_target=S3_COMPONENTS):
    return _dsm_rule("dsm_hybrid", model, sources, s3_target, True)


def _dsm_rule(rule, model, sources, s3_target, imprecise=None):
    """The DSm rule called rule; imprecise fixes the sources' kind, and
    None reads it off the first source."""
    if imprecise is None:
        imprecise = bool(sources) and isinstance(sources[0], ImpreciseMass)
    if imprecise:
        rule += "_imprecise"
    wanted = ImpreciseMass if imprecise else PreciseMass
    model, warnings = _prepare(sources, rule, model, wanted)
    plan = _transfer_plan(model, s3_target)
    if imprecise and not all(s.is_point for m in sources for _, s in m.items()):
        acc, conflict, _, _ = _walk(sources, plan, _set_product, _set_sum,
                                    SubunitarySet.point(0.0).pieces, attrgetter("pieces"))
        mass = {LatticeElement(model.frame, k): _of(v) for k, v in acc.items()}
        return FusionReport(rule, model, ImpreciseMass(model.frame, mass), _of(conflict),
                            tuple(warnings))
    if not imprecise:
        return _report(rule, model, warnings, _fold(sources, plan))
    # Every value is a point: fold the points and lift the result back.
    points = [PreciseMass(m.frame, {el: s.as_point() for el, s in m.items()}) for m in sources]
    report = _report(rule, model, warnings, _fold(points, plan))
    return replace(report, mass=lift(report.mass), conflict=SubunitarySet.point(report.conflict))


def dempster(model, sources):
    """Conjunctive consensus, each alive sum divided by the alive total."""
    model, warnings = _prepare(sources, "dempster", model)
    sums = alive, dead, _, den = _fold(sources, _meet_plan(model))
    total = sum(alive.values())
    if total / den <= _NEAR_ZERO:
        raise TotalConflict(f"sources are fully conflicting (k12={dead / den})")
    return _report("dempster", model, warnings, sums, total)


def smets(model, sources):
    """Conjunctive consensus with the conflicting mass kept on the empty
    element (open-world reading)."""
    model, warnings = _prepare(sources, "smets", model)
    return _report("smets", model, warnings, _fold(sources, _meet_plan(model, 0)),
                   allows_empty_focal=True)


def yager(model, sources):
    """Conjunctive consensus with the conflicting mass moved to total
    ignorance."""
    model, warnings = _prepare(sources, "yager", model)
    it = model.reduce(model.frame.total_ignorance()).bits
    return _report("yager", model, warnings, _fold(sources, _meet_plan(model, it)))


def dubois_prade(model, sources):
    """Pairwise rule: keep live intersections, retry the union for
    forbidden ones, drop mass whose union is forbidden too (subnormal
    output plus a warning, no renormalization)."""
    model, warnings = _prepare(sources, "dubois_prade", model, exactly=2)

    alive = ~model.emptied

    def land(pair):
        x, y = pair
        key = x & y & alive
        if key:
            return key, None, False
        return ((x | y) & alive or None), None, True

    sums = _, _, lost, den = _fold(sources, (*_PAIR, land))
    if lost > 0:
        lost /= den
        warnings.append(
            f"mass {lost:.6f} fell on forbidden unions; output is subnormal"
            f" (total {1.0 - lost:.6f})"
        )
    return _report("dubois_prade", model, warnings, sums)


def disjunctive(sources, model=None):
    """Union consensus: each tuple's mass lands on the join of its focal
    elements."""
    model, warnings = _prepare(sources, "disjunctive", model)
    return _report("disjunctive", model, warnings, _fold(sources, _join_plan(model)))


# --- similarity degrees --------------------------------------------------------

def _intersection_degree(alive, x, y):
    """|x meet y| / |x join y| on bitsets x and y, exactly, counting the
    parts in the mask alive; the union degree is 1 minus it."""
    cu = ((x | y) & alive).bit_count()
    return Fraction((x & y & alive).bit_count(), cu) if cu else 1


def degree_of_intersection(model, x, y):
    """Shared fraction of two elements: |x meet y| / |x join y| under the
    model's cardinality. Both elements forbidden counts as identical (1)."""
    model.reduce(x | y)  # TypeError for a non-element, FrameMismatch across frames
    return float(_intersection_degree(~model.emptied, x.bits, y.bits))


def degree_of_union(model, x, y):
    """Complementary fraction: (|x join y| - |x meet y|) / |x join y|."""
    model.reduce(x | y)  # TypeError for a non-element, FrameMismatch across frames
    return float(1 - _intersection_degree(~model.emptied, x.bits, y.bits))


def degree_of_inclusion(model, x, y):
    """|x| / |y| when the model makes x a subset of y."""
    rx = model.reduce(x)
    ry = model.reduce(y)
    if rx.bits & ~ry.bits:
        raise NotASubset(f"{x.expr()} is not contained in {y.expr()} under the model")
    if ry.bits == 0:
        return 1.0
    return rx.bits.bit_count() / ry.bits.bit_count()


# --- degree-weighted (improved) rules ----------------------------------------

def _total(sums, rule):
    """The total of a loop's sums, refused when it over their den is near
    zero or below."""
    acc, _, _, den = sums
    total = sum(acc.values())
    if total / den <= _NEAR_ZERO:
        raise DegenerateNormalization(f"{rule}: every weighted product vanished")
    return total


def dsmc_improved(sources, model=None):
    """Classic conjunctive rule with each product weighted by how much the
    pair actually overlaps, renormalized at the end."""
    model, warnings = _prepare(sources, "dsmc_improved", model, exactly=2)
    alive = ~model.emptied

    def land(pair):
        x, y = pair
        reduced = x & y & alive
        if not reduced:
            # Weight 0 except for the all-forbidden corner; either way the
            # classic-with-degrees rule keeps no mass on forbidden elements.
            return None, None, True
        return reduced, _intersection_degree(alive, x, y), False

    sums = _fold(sources, (*_PAIR, land))
    return _report("dsmc_improved", model, warnings, sums, _total(sums, "dsmc_improved"))


def disjunctive_improved(sources, model=None):
    """Union rule weighted by how much the pair differs, renormalized."""
    model, warnings = _prepare(sources, "disjunctive_improved", model, exactly=2)
    alive = ~model.emptied

    def land(pair):
        x, y = pair
        w = 1 - _intersection_degree(alive, x, y)
        # pairs that do not differ under the model weigh 0 and add no element
        return ((x | y) & alive if w else None), w, False

    sums = _fold(sources, (*_PAIR, land))
    return _report("disjunctive_improved", model, warnings, sums,
                   _total(sums, "disjunctive_improved"))


def dsmh_improved(model, sources, s3_target=S3_COMPONENTS):
    """Transfer rule with overlap-weighted live mass and difference-weighted
    rerouted mass; the all-forbidden transfer keeps full weight."""
    model, warnings = _prepare(sources, "dsmh_improved", model, exactly=2)
    facts, step, route = _transfer_plan(model, s3_target)
    alive = ~model.emptied

    def land(pair):
        (x, fx), (y, fy) = pair
        key, _, dead = route(step(fx, fy))
        if not dead:
            w = _intersection_degree(alive, x, y)
        elif not (x | y) & alive:
            w = 1
        else:
            w = 1 - _intersection_degree(alive, x, y)
        return key, w, dead

    sums = _fold(sources, (lambda el: (el.bits, facts(el)), _PAIR[1], land))
    return _report("dsmh_improved", model, warnings, sums, _total(sums, "dsmh_improved"))


# --- T-norm / T-conorm substitutes ---------------------------------------------

TNORMS = {
    "algebraic": lambda x, y: x * y,
    "bounded": lambda x, y: max(0.0, x + y - 1.0),
    "min": min,
}

TCONORMS = {
    "algebraic": lambda x, y: x + y - x * y,
    "bounded": lambda x, y: min(1.0, x + y),
    "max": max,
}


def _kernel(table, name, what):
    """The kernel called name in table (TNORMS or TCONORMS); what names its
    kind in the error for an unknown name."""
    if name not in table:
        raise ValidationError([f"unknown {what} {name!r}"])
    return table[name]


def tnorm_fusion(norm, sources, model=None, s3_target=S3_COMPONENTS):
    """Conjunctive fusion with the product replaced by a T-norm.

    The algebraic T-norm is the product itself, so its output needs no
    normalization and equals dsm_classic; the min and bounded variants are
    normalized after the model transfer.
    """
    kernel = _kernel(TNORMS, norm, "T-norm")
    model, warnings = _prepare(sources, "tnorm", model, exactly=2)
    rule, plan = f"tnorm[{norm}]", _transfer_plan(model, s3_target)
    if norm == "algebraic":
        return _report(rule, model, warnings, _fold(sources, plan))
    sums = _walk(sources, plan, kernel)
    return _report(rule, model, warnings, sums, _total(sums, rule))


def tconorm_fusion(conorm, sources, model=None):
    """Disjunctive fusion with the product replaced by a T-conorm; every
    variant is normalized since the summed values overshoot 1."""
    kernel = _kernel(TCONORMS, conorm, "T-conorm")
    model, warnings = _prepare(sources, "tconorm", model, exactly=2)
    sums = _walk(sources, _join_plan(model), kernel)
    return _report(f"tconorm[{conorm}]", model, warnings, sums, _total(sums, f"tconorm[{conorm}]"))
