"""Combination rules for precise and imprecise mass functions.

Every rule here, and the triple fusions in neutro, runs on one walk,
`_walk`. It visits the cartesian product of the sources' focal items,
each source's items in (cardinality, bit pattern) order, and folds a
tuple's values left with a kernel: the product, or a T-norm or T-conorm.
A landing function then maps the tuple's focal elements and value to
`(key, value, dead)`. `value` is added on `key`; the tuple's value counts
as conflict when `dead` is true; mass landing on key `None` is dropped
and handed back to the caller. The rules differ only in their landing
and in what they do with the sums:

- transfer (`_route`): a live intersection keeps its mass; a forbidden
  one goes to the union of the hypotheses involved or, when every
  component is itself forbidden, to the union of their component
  hypotheses, falling back to total ignorance. On the free lattice
  nothing is forbidden, which is the classic rule;
- meet (`_meet`): forbidden intersections are conflict and land nowhere;
  dempster normalizes them away, smets parks them on the empty element,
  yager parks them on total ignorance;
- join (`_join`): each tuple lands on the union of its focal elements;
- dubois_prade retries the union for a forbidden intersection and drops
  the mass whose union is forbidden too, leaving a subnormal output with
  a warning; the degree-weighted rules scale each value by how much the
  pair overlaps or differs.

A value only needs + and the kernel: floats, subunitary sets, and the
point triples of neutro all qualify. dsm_classic and dsm_hybrid take
precise or imprecise sources. Sums and products of one-point sets run the
same float operations in the same order as the precise rules, so point
sets reproduce the precise results bit for bit.
"""

from dataclasses import dataclass
from itertools import product
from operator import mul

from .errors import (
    DegenerateNormalization,
    FewerThanTwoSources,
    FrameMismatch,
    NotASubset,
    TotalConflict,
    ValidationError,
)
from .lattice import Model, component_union, dsm_cardinality, upward_closure
from .mass import ImpreciseMass, PreciseMass, SubunitarySet, is_admissible

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

def _prepare(sources, rule, model=None, imprecise=False, exactly=None):
    """Check the sources, and the model against their frame. Returns the
    model (free when none is given) and the warnings."""
    wanted = ImpreciseMass if imprecise else PreciseMass
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
        if imprecise and not is_admissible(m):
            warnings.append(f"source {i + 1} is not admissible; fusing anyway")
    if model is None:
        return Model.free(frame), warnings
    if model.frame != frame:
        raise FrameMismatch("model frame differs from the sources' frame")
    return model, warnings


def _focal_items(m):
    if isinstance(m, ImpreciseMass):
        return [(el, s) for el, s in m.items() if not (s.is_point and s.as_point() == 0.0)]
    return [(el, v) for el, v in m.items() if v != 0.0]


def _walk(sources, land, kernel=mul, zero=0.0):
    """Sum every focal tuple's value on its landing site.

    Returns (sums per key, conflict, mass dropped on key None). The tuple
    order and the left fold are fixed, so two rules that land a tuple
    alike produce the same floats.
    """
    acc = {}
    conflict = lost = zero
    for combo in product(*(_focal_items(m) for m in sources)):
        els = [el for el, _ in combo]
        v = combo[0][1]
        for _, vi in combo[1:]:
            v = kernel(v, vi)
        key, value, dead = land(els, v)
        if dead:
            conflict = conflict + v
        if key is None:
            lost = lost + value
        else:
            acc[key] = acc.get(key, zero) + value
    return acc, conflict, lost


def _meet_all(els):
    x = els[0]
    for e in els[1:]:
        x = x & e
    return x


def _join_all(els):
    x = els[0]
    for e in els[1:]:
        x = x | e
    return x


def _route(model, s3_target):
    """Transfer landing: live intersections stay, forbidden ones are
    conflict rerouted under the model."""
    it_reduced = model.reduce(model.frame.total_ignorance())

    def land(els, v):
        inter = _meet_all(els)
        reduced = model.reduce(inter)
        if reduced.bits:
            return reduced, v, False
        if inter.bits == 0:
            # Focal elements keyed by reduced representatives have lost their
            # dead parts, so the raw meet can bottom out even though the free
            # meet never does. Rebuild it; the canonical form needs it.
            inter = _meet_all([upward_closure(e) for e in els])
        if all(model.is_model_empty(e) for e in els):
            target = model.reduce(_join_all([component_union(e) for e in els]))
        elif s3_target == S3_COMPONENTS:
            target = model.reduce(component_union(inter))
        else:
            target = model.reduce(_join_all(els))
        return (target if target.bits else it_reduced), v, True

    return land


def _meet(model):
    """Meet landing: forbidden intersections are conflict and land nowhere."""
    def land(els, v):
        key = model.reduce(_meet_all(els))
        if key.bits:
            return key, v, False
        return None, v, True

    return land


def _join(model):
    """Join landing: every tuple lands on the union of its focal elements."""
    return lambda els, v: (model.reduce(_join_all(els)), v, False)


# --- classic and transfer rules ----------------------------------------------

def dsm_classic(sources):
    """Conjunctive consensus on the free lattice; never any conflict.
    Sources are all precise or all imprecise."""
    return _dsm_rule("dsm_classic", None, sources, S3_COMPONENTS)


def dsm_hybrid(model, sources, s3_target=S3_COMPONENTS):
    """Conjunctive consensus with forbidden mass rerouted under the model.
    Sources are all precise or all imprecise."""
    return _dsm_rule("dsm_hybrid", model, sources, s3_target)


# The imprecise spellings name the same rules; reports on imprecise
# sources carry them.
dsm_classic_imprecise = dsm_classic
dsm_hybrid_imprecise = dsm_hybrid


def _dsm_rule(rule, model, sources, s3_target):
    imprecise = bool(sources) and isinstance(sources[0], ImpreciseMass)
    if imprecise:
        rule += "_imprecise"
    model, warnings = _prepare(sources, rule, model, imprecise)
    model.check_not_degenerate()
    zero = SubunitarySet.point(0.0) if imprecise else 0.0
    acc, conflict, _ = _walk(sources, _route(model, s3_target), zero=zero)
    mass = (ImpreciseMass if imprecise else PreciseMass)(model.frame, acc)
    return FusionReport(rule, model, mass, conflict, tuple(warnings))


def dempster(model, sources):
    """Conjunctive consensus normalized by the non-conflicting mass."""
    model, warnings = _prepare(sources, "dempster", model)
    model.check_not_degenerate()
    alive, dead, _ = _walk(sources, _meet(model))
    if 1.0 - dead <= _NEAR_ZERO:
        raise TotalConflict(f"sources are fully conflicting (k12={dead})")
    scale = 1.0 - dead
    acc = {el: v / scale for el, v in alive.items()}
    return FusionReport("dempster", model, PreciseMass(model.frame, acc), dead, tuple(warnings))


def smets(model, sources):
    """Conjunctive consensus with the conflicting mass kept on the empty
    element (open-world reading)."""
    model, warnings = _prepare(sources, "smets", model)
    model.check_not_degenerate()
    alive, dead, _ = _walk(sources, _meet(model))
    empty = model.frame.empty()
    if dead > 0.0:
        alive[empty] = alive.get(empty, 0.0) + dead
    return FusionReport("smets", model, PreciseMass(model.frame, alive, allows_empty_focal=True),
                        dead, tuple(warnings))


def yager(model, sources):
    """Conjunctive consensus with the conflicting mass moved to total
    ignorance."""
    model, warnings = _prepare(sources, "yager", model)
    model.check_not_degenerate()
    alive, dead, _ = _walk(sources, _meet(model))
    if dead > 0.0:
        it = model.reduce(model.frame.total_ignorance())
        alive[it] = alive.get(it, 0.0) + dead
    return FusionReport("yager", model, PreciseMass(model.frame, alive), dead, tuple(warnings))


def dubois_prade(model, sources):
    """Pairwise rule: keep live intersections, retry the union for
    forbidden ones, drop mass whose union is forbidden too (subnormal
    output plus a warning, no renormalization)."""
    model, warnings = _prepare(sources, "dubois_prade", model, exactly=2)
    model.check_not_degenerate()

    def land(els, v):
        key = model.reduce(_meet_all(els))
        if key.bits:
            return key, v, False
        key = model.reduce(_join_all(els))
        return (key if key.bits else None), v, True

    acc, dead, lost = _walk(sources, land)
    if lost > 0.0:
        warnings.append(
            f"mass {lost:.6f} fell on forbidden unions; output is subnormal"
            f" (total {1.0 - lost:.6f})"
        )
    return FusionReport("dubois_prade", model, PreciseMass(model.frame, acc), dead,
                        tuple(warnings))


def disjunctive(sources, model=None):
    """Union consensus: each tuple's mass lands on the join of its focal
    elements."""
    model, warnings = _prepare(sources, "disjunctive", model)
    model.check_not_degenerate()
    acc, _, _ = _walk(sources, _join(model))
    return FusionReport("disjunctive", model, PreciseMass(model.frame, acc), 0.0,
                        tuple(warnings))


# --- similarity degrees --------------------------------------------------------

def degree_of_intersection(model, x, y):
    """Shared fraction of two elements: |x meet y| / |x join y| under the
    model's cardinality. Both elements forbidden counts as identical (1)."""
    cu = dsm_cardinality(model, x | y)
    if cu == 0:
        return 1.0
    return dsm_cardinality(model, x & y) / cu


def degree_of_union(model, x, y):
    """Complementary fraction: (|x join y| - |x meet y|) / |x join y|."""
    cu = dsm_cardinality(model, x | y)
    if cu == 0:
        return 0.0
    return (cu - dsm_cardinality(model, x & y)) / cu


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

def _normalize_acc(acc, rule):
    total = sum(acc.values())
    if total <= _NEAR_ZERO:
        raise DegenerateNormalization(f"{rule}: every weighted product vanished")
    return {el: v / total for el, v in acc.items()}, total


def dsmc_improved(sources, model=None):
    """Classic conjunctive rule with each product weighted by how much the
    pair actually overlaps, renormalized at the end."""
    model, warnings = _prepare(sources, "dsmc_improved", model, exactly=2)

    def land(els, v):
        x, y = els
        reduced = model.reduce(x & y)
        if not reduced.bits:
            # Weight 0 except for the all-forbidden corner; either way the
            # classic-with-degrees rule keeps no mass on forbidden elements.
            return None, v, True
        return reduced, degree_of_intersection(model, x, y) * v, False

    acc, conflict, _ = _walk(sources, land)
    acc, _ = _normalize_acc(acc, "dsmc_improved")
    return FusionReport("dsmc_improved", model, PreciseMass(model.frame, acc), conflict,
                        tuple(warnings))


def disjunctive_improved(sources, model=None):
    """Union rule weighted by how much the pair differs, renormalized."""
    model, warnings = _prepare(sources, "disjunctive_improved", model, exactly=2)

    def land(els, v):
        x, y = els
        w = degree_of_union(model, x, y)
        # pairs that do not differ under the model weigh 0 and add no element
        return (model.reduce(x | y) if w else None), w * v, False

    acc, _, _ = _walk(sources, land)
    acc, _ = _normalize_acc(acc, "disjunctive_improved")
    return FusionReport("disjunctive_improved", model, PreciseMass(model.frame, acc), 0.0,
                        tuple(warnings))


def dsmh_improved(model, sources, s3_target=S3_COMPONENTS):
    """Transfer rule with overlap-weighted live mass and difference-weighted
    rerouted mass; the all-forbidden transfer keeps full weight."""
    model, warnings = _prepare(sources, "dsmh_improved", model, exactly=2)
    model.check_not_degenerate()
    route = _route(model, s3_target)

    def land(els, v):
        x, y = els
        key, _, dead = route(els, v)
        if not dead:
            w = degree_of_intersection(model, x, y)
        elif model.is_model_empty(x) and model.is_model_empty(y):
            w = 1.0
        else:
            w = degree_of_union(model, x, y)
        return key, w * v, dead

    acc, conflict, _ = _walk(sources, land)
    acc, _ = _normalize_acc(acc, "dsmh_improved")
    return FusionReport("dsmh_improved", model, PreciseMass(model.frame, acc), conflict,
                        tuple(warnings))


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


def tnorm_fusion(norm, sources, model=None, s3_target=S3_COMPONENTS):
    """Conjunctive fusion with the product replaced by a T-norm.

    The algebraic T-norm is the product itself, so its output needs no
    normalization and equals dsm_classic; the min and bounded variants are
    normalized after the model transfer.
    """
    if norm not in TNORMS:
        raise ValidationError([f"unknown T-norm {norm!r}"])
    model, warnings = _prepare(sources, "tnorm", model, exactly=2)
    model.check_not_degenerate()
    acc, conflict, _ = _walk(sources, _route(model, s3_target), TNORMS[norm])
    if norm != "algebraic":
        acc, _ = _normalize_acc(acc, f"tnorm[{norm}]")
    return FusionReport(f"tnorm[{norm}]", model, PreciseMass(model.frame, acc), conflict,
                        tuple(warnings))


def tconorm_fusion(conorm, sources, model=None):
    """Disjunctive fusion with the product replaced by a T-conorm; every
    variant is normalized since the summed values overshoot 1."""
    if conorm not in TCONORMS:
        raise ValidationError([f"unknown T-conorm {conorm!r}"])
    model, warnings = _prepare(sources, "tconorm", model, exactly=2)
    model.check_not_degenerate()
    acc, _, _ = _walk(sources, _join(model), TCONORMS[conorm])
    acc, _ = _normalize_acc(acc, f"tconorm[{conorm}]")
    return FusionReport(f"tconorm[{conorm}]", model, PreciseMass(model.frame, acc), 0.0,
                        tuple(warnings))
