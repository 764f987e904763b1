"""Neutrosophic triples, logic connectors, and triple-valued fusion.

A proposition carries a (truth, indeterminacy, falsehood) triple. Each
component is a subunitary set; logic connectors work on set components and
clamp their outputs into [0, 1]. Fusion, in contrast, needs point-valued
components, leaves accumulated sums unclamped (a component may well exceed
1 before normalization), and normalizes each output triple by the sum of
its components.
"""

from dataclasses import dataclass

from .errors import FrameMismatch, ValidationError, ZeroSum
from .lattice import Model
from .mass import SubunitarySet, _MassBase
from .rules import FusionReport, TCONORMS, TNORMS, S3_COMPONENTS, _join, _route, _walk

_ONE = SubunitarySet.point(1.0)


def _as_set(value):
    if isinstance(value, SubunitarySet):
        return value
    return SubunitarySet.point(float(value))


@dataclass(frozen=True)
class NeutrosophicTriple:
    """(truth, indeterminacy, falsehood), each a subunitary set."""

    truth: SubunitarySet
    indeterminacy: SubunitarySet
    falsehood: SubunitarySet

    @classmethod
    def of(cls, truth, indeterminacy, falsehood):
        return cls(_as_set(truth), _as_set(indeterminacy), _as_set(falsehood))

    @property
    def is_point(self):
        return self.truth.is_point and self.indeterminacy.is_point and self.falsehood.is_point

    def as_points(self):
        return (self.truth.as_point(), self.indeterminacy.as_point(), self.falsehood.as_point())

    def components(self):
        return (self.truth, self.indeterminacy, self.falsehood)

    def component_sum(self):
        t, i, f = self.as_points()
        return t + i + f

    def __repr__(self):
        return f"({self.truth}, {self.indeterminacy}, {self.falsehood})"


def _check_unit(trip, who):
    for comp in trip.components():
        if not comp.within_unit():
            raise ValidationError([f"{who} needs components inside [0,1], got {comp}"])


def _componentwise(a, b, op):
    return NeutrosophicTriple(
        *(op(x, y) for x, y in zip(a.components(), b.components()))
    )


# --- logic connectors (set-capable, clamped) ----------------------------------

def nl_negation(a):
    """Complement every component against 1."""
    _check_unit(a, "negation")
    return NeutrosophicTriple(*((_ONE - c).clamp01() for c in a.components()))


def nl_conjunction(a, b):
    """Componentwise product."""
    _check_unit(a, "conjunction")
    _check_unit(b, "conjunction")
    return _componentwise(a, b, lambda x, y: (x * y).clamp01())


def nl_disjunction(a, b):
    """Componentwise x + y - xy."""
    _check_unit(a, "disjunction")
    _check_unit(b, "disjunction")
    return _componentwise(a, b, lambda x, y: (x + y - x * y).clamp01())


# The set operators coincide with the logic connectors.
ns_complement = nl_negation
ns_intersection = nl_conjunction
ns_union = nl_disjunction


def ns_difference(a, b):
    """Componentwise x - xy: what remains of a after removing its share
    of b."""
    _check_unit(a, "difference")
    _check_unit(b, "difference")
    return _componentwise(a, b, lambda x, y: (x - x * y).clamp01())


# --- N-norms / N-conorms (point-valued, for fusion) ----------------------------

def _apply_kernel(kernel, a, b):
    at, ai, af = a.as_points()
    bt, bi, bf = b.as_points()
    return (kernel(at, bt), kernel(ai, bi), kernel(af, bf))


def nnorm(kind, a, b):
    """Conjunctive combination of two point triples, componentwise."""
    if kind not in TNORMS:
        raise ValidationError([f"unknown N-norm {kind!r}"])
    return NeutrosophicTriple.of(*_apply_kernel(TNORMS[kind], a, b))


def nconorm(kind, a, b):
    """Disjunctive combination of two point triples, componentwise."""
    if kind not in TCONORMS:
        raise ValidationError([f"unknown N-conorm {kind!r}"])
    return NeutrosophicTriple.of(*_apply_kernel(TCONORMS[kind], a, b))


def normalize_triple(trip):
    """Divide the components by their sum."""
    t, i, f = trip.as_points()
    s = t + i + f
    if abs(s) <= 1e-12:
        raise ZeroSum("triple components sum to zero")
    return NeutrosophicTriple.of(t / s, i / s, f / s)


# --- triple-valued mass functions ----------------------------------------------

class TripleMass(_MassBase):
    """Mass function carrying a point-valued triple per focal element."""

    def mass(self, element):
        got = self._masses.get(element)
        return got if got is not None else NeutrosophicTriple.of(0.0, 0.0, 0.0)

    def validate(self, tol=1e-9):
        problems = []
        for el, trip in self._masses.items():
            if not isinstance(trip, NeutrosophicTriple):
                problems.append(f"value on {el.expr()} is not a triple")
                continue
            if not trip.is_point:
                problems.append(f"fusion needs point components on {el.expr()}")
                continue
            for name, comp in zip("TIF", trip.as_points()):
                if not -tol <= comp <= 1 + tol:
                    problems.append(f"{name} component {comp} on {el.expr()} outside [0,1]")
            if el.bits == 0 and any(c != 0.0 for c in trip.as_points()):
                problems.append(f"triple mass on the empty element {el.expr()}")
        return problems

    def check(self, tol=1e-9):
        problems = self.validate(tol)
        if problems:
            raise ValidationError(problems)
        return self

    def __repr__(self):
        inner = ", ".join(f"{el.expr()}: {trip!r}" for el, trip in self._masses.items())
        return "TripleMass({" + inner + "})"


class _PointTriple(tuple):
    """(t, i, f) floats that add component by component: the value type
    triple fusion sums on the shared walk."""

    __slots__ = ()

    def __add__(self, other):
        return _PointTriple((self[0] + other[0], self[1] + other[1], self[2] + other[2]))


_ZERO = _PointTriple((0.0, 0.0, 0.0))


def _fuse_triples(rule, name, kernel, sources, model, landing, normalize):
    """Walk the focal pairs with the kernel applied componentwise, drop
    all-zero sums and normalize the rest unless told not to. The reported
    conflict is the truth component of the mass counted as conflict."""
    if len(sources) != 2:
        raise ValidationError([f"{rule} combines exactly 2 sources, got {len(sources)}"])
    frame = sources[0].frame
    for i, m in enumerate(sources):
        if not isinstance(m, TripleMass):
            raise TypeError(f"{rule} expects TripleMass, got {type(m).__name__}")
        if m.frame != frame:
            raise FrameMismatch("sources live on different frames")
        problems = m.validate()
        if problems:
            raise ValidationError([f"source {i + 1}: {p}" for p in problems])
    model = model or Model.free(frame)
    if model.frame != frame:
        raise FrameMismatch("model frame differs from the sources' frame")
    model.check_not_degenerate()
    # Exactly two sources, so the kernel always meets two source triples.
    acc, conflict, _ = _walk(
        sources, landing(model), lambda a, b: _PointTriple(_apply_kernel(kernel, a, b)), _ZERO
    )
    out = {}
    for el, (t, i, f) in acc.items():
        s = t + i + f
        if s == 0.0:
            continue
        if normalize:
            t, i, f = t / s, i / s, f / s
        out[el] = NeutrosophicTriple.of(t, i, f)
    return FusionReport(name, model, TripleMass(frame, out), conflict[0])


def nnorm_fusion(kind, sources, model=None, s3_target=S3_COMPONENTS, normalize=True):
    """Conjunctive triple fusion: componentwise N-norm per focal pair,
    model transfer for forbidden intersections, then per-element
    normalization (disable it to inspect the raw accumulation).

    The reported conflict is the truth-component mass that was rerouted.
    """
    if kind not in TNORMS:
        raise ValidationError([f"unknown N-norm {kind!r}"])
    return _fuse_triples("nnorm_fusion", f"nnorm[{kind}]", TNORMS[kind], sources, model,
                         lambda m: _route(m, s3_target), normalize)


def nconorm_fusion(kind, sources, model=None, normalize=True):
    """Disjunctive triple fusion: componentwise N-conorm per focal pair on
    the union element, then per-element normalization."""
    if kind not in TCONORMS:
        raise ValidationError([f"unknown N-conorm {kind!r}"])
    return _fuse_triples("nconorm_fusion", f"nconorm[{kind}]", TCONORMS[kind], sources, model,
                         _join, normalize)
