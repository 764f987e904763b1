"""Neutrosophic triples, logic connectors, and triple-valued fusion.

A proposition carries a (truth, indeterminacy, falsehood) triple. Each
component is a subunitary set; logic connectors work on set components and
clamp their outputs into [0, 1]. Fusion, in contrast, needs point-valued
components, leaves accumulated sums unclamped (a component may well exceed
1 before normalization), and normalizes each output triple by the sum of
its components.

Triple fusion reads each focal triple's (t, i, f) points once per
source and walks the pairs with the kernel mapped over two such triples;
the output components are point sets built directly (see mass). The
algebraic N-norm is the product componentwise, which distributes over +,
so its triples walk as exact ints over one common denominator: every sum
is exact and rounded once, and the raw truth channel is the precise
conjunctive rule exactly.
"""

from dataclasses import dataclass

from .errors import ValidationError, ZeroSum
from .lattice import LatticeElement
from .mass import DEFAULT_TOL, SubunitarySet, _MassBase
from .rules import (
    FusionReport, TCONORMS, TNORMS, S3_COMPONENTS, _join_plan, _kernel, _over_one_den, _prepare,
    _transfer_plan, _walk,
)

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
        return self._points() is not None

    def _points(self):
        """The three points, or None unless each component is one piece with
        lower == upper (never so for NaN)."""
        points = ()
        for c in self.components():
            if len(c.pieces) != 1 or c.pieces[0][0] != c.pieces[0][1]:
                return None
            points += (c.pieces[0][0],)
        return points

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

def nnorm(kind, a, b):
    """Conjunctive combination of two point triples, componentwise."""
    kernel = _kernel(TNORMS, kind, "N-norm")
    return NeutrosophicTriple.of(*map(kernel, a.as_points(), b.as_points()))


def nconorm(kind, a, b):
    """Disjunctive combination of two point triples, componentwise."""
    kernel = _kernel(TCONORMS, kind, "N-conorm")
    return NeutrosophicTriple.of(*map(kernel, a.as_points(), b.as_points()))


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

    _zero = NeutrosophicTriple.of(0.0, 0.0, 0.0)
    _text = staticmethod(repr)

    def validate(self, tol=DEFAULT_TOL):
        problems = []
        for el, trip in self._masses.items():
            if not isinstance(trip, NeutrosophicTriple):
                problems.append(f"value on {el.expr()} is not a triple")
                continue
            if (points := trip._points()) is None:
                problems.append(f"fusion needs point components on {el.expr()}")
                continue
            for name, comp in zip("TIF", points):
                if not -tol <= comp <= 1 + tol:
                    problems.append(f"{name} component {comp} on {el.expr()} outside [0,1]")
            if el.bits == 0 and any(c != 0.0 for c in points):
                problems.append(f"triple mass on the empty element {el.expr()}")
        return problems


def _fuse_triples(rule, name, kernel, sources, model, plan, normalize):
    """Sum the focal pairs with the kernel applied componentwise, drop
    all-zero sums and normalize the rest unless told not to. The reported
    conflict is the truth component of the mass counted as conflict.

    The algebraic N-norm reads each triple as three ints over one
    denominator D, the _over_one_den of every component of both sources, so
    its sums are exact over D * D and each is rounded once, by int true
    division. The other kernels walk the float points."""
    model, _ = _prepare(sources, rule, model, TripleMass, exactly=2)
    read, den = NeutrosophicTriple._points, 1
    if name == "nnorm[algebraic]":
        points = [t._points() for m in sources for _, t in m.items()]
        ints, d = _over_one_den([c for p in points for c in p])
        exact, den = dict(zip(points, zip(*[iter(ints)] * 3))), d * d

        def read(trip):
            return exact[trip._points()]
    # Exactly two sources, so the kernel always meets two source triples;
    # every focal triple is kept, as a triple is never equal to 0.0.
    acc, conflict, _, _ = _walk(sources, plan(model), lambda a, b: (
        kernel(a[0], b[0]), kernel(a[1], b[1]), kernel(a[2], b[2])),
        lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]), (0, 0, 0), read)
    frame, point = model.frame, SubunitarySet.point
    out = {}
    for k, (t, i, f) in acc.items():
        s = t + i + f
        if s == 0:
            continue
        if not normalize:
            s = den  # the raw sums, over D * D or the float walk's 1
        out[LatticeElement(frame, k)] = NeutrosophicTriple(point(t / s), point(i / s), point(f / s))
    return FusionReport(name, model, TripleMass(frame, out), conflict[0] / den)


def nnorm_fusion(kind, sources, model=None, s3_target=S3_COMPONENTS, normalize=True):
    """Conjunctive triple fusion: componentwise N-norm per focal pair,
    model transfer for forbidden intersections, then per-element
    normalization (disable it to inspect the raw accumulation).

    The reported conflict is the truth-component mass that was rerouted.
    """
    return _fuse_triples("nnorm_fusion", f"nnorm[{kind}]", _kernel(TNORMS, kind, "N-norm"),
                         sources, model, lambda m: _transfer_plan(m, s3_target), normalize)


def nconorm_fusion(kind, sources, model=None, normalize=True):
    """Disjunctive triple fusion: componentwise N-conorm per focal pair on
    the union element, then per-element normalization."""
    return _fuse_triples("nconorm_fusion", f"nconorm[{kind}]",
                         _kernel(TCONORMS, kind, "N-conorm"), sources, model, _join_plan, normalize)
