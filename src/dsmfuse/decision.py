"""Belief, plausibility, pignistic probabilities, and decisions.

Subset and overlap tests run on model-reduced bitsets, so a query element
and a focal element compare the way the model sees them; a mass's focal
elements are reduced once per table, and each query sums bel and pl, plain
or weighted, in one pass over the reduced (bitset, value) pairs in the
mass's order.

The pignistic transform GPT(A) = sum over focal X of m(X) |X meet A| / |X|
counts cardinalities in alive parts, so it is the sum over A's parts p of
the part density q(p) = sum over focal X holding p of m(X) / |X|. q is
exact: the masses become ints over one common denominator (the lcm of
their as_integer_ratio denominators, so Fractions spread exactly), each
times the lcm of the focal cardinalities over |X|, so every term is an
int over one shared denominator. One 256-entry table of sums of q per
byte of a part bitset, summed over the model's alive bitsets by byte
column (byte k of every bitset packed in an array('Q') is the stride
lattice._COLUMNS[k] of its bytes, so each column is one map), gives each
element's exact numerator, divided once by int true division: each value
is the exact sum rounded once, whatever the order of the focal elements.
The classical variant additionally moves mass on zero-cardinality elements
to the empty element, exactly, before that rounding (the 0/0 = 1 reading of
the empty-over-empty ratio), which keeps open-world masses accounted for;
the model-general one skips such mass with a warning.
"""

from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import repeat
from math import lcm
from operator import add, getitem, truediv

from .errors import EmptyArgument, EmptyCandidates, ModelNotShafer
from .lattice import _COLUMNS, LatticeElement, Model, _per_byte
from .rules import _over_one_den


def _reduced_items(m, model):
    """(reduced bitset, value) per focal element of m, in m's order."""
    return [(model.reduce(el).bits, v) for el, v in m.items()]


def _bel_pl(items, ra, weighted=None):
    """bel and pl of the query bitset ra, summed over reduced focal items
    (rx, v) in their order: pl takes each rx meeting ra, bel each rx inside
    it. weighted, "belief" or "plausibility" for the form asked, weights bel
    by |rx| / |ra| and pl by |rx meet ra| / |rx join ra|, and refuses a
    forbidden ra in that form's words."""
    if weighted and not ra:
        raise EmptyArgument(f"weighted {weighted} undefined on a forbidden element")
    ca, b, p = ra.bit_count(), 0.0, 0.0
    for rx, v in items:
        inter = rx & ra
        if inter:
            p += v * inter.bit_count() / (rx | ra).bit_count() if weighted else v
            if inter == rx:
                b += v * rx.bit_count() / ca if weighted else v
    return b, p


def _query(m, a, model, weighted=None):
    """bel and pl of a over m's reduced focal items."""
    model = model or Model.free(m.frame)
    ra = model.reduce(a).bits
    return _bel_pl(_reduced_items(m, model), ra, weighted)


def bel(m, a, model=None):
    """Total mass of focal elements contained in a (empty ones aside)."""
    return _query(m, a, model)[0]


def pl(m, a, model=None):
    """Total mass of focal elements overlapping a."""
    return _query(m, a, model)[1]


def bel_improved(m, a, model=None):
    """Inclusion-weighted belief: each contained focal element counts in
    proportion to its share of a's cardinality."""
    return _query(m, a, model, "belief")[0]


def pl_improved(m, a, model=None):
    """Overlap-weighted plausibility: each overlapping focal element counts
    by its overlap fraction |x meet a| / |x join a|."""
    return _query(m, a, model, "plausibility")[1]


def bel_pl_tables(m, model):
    """bel and pl of each focal element of m, keyed by it, from one
    reduction of m's focal elements and one pass per element."""
    items = _reduced_items(m, model)
    rows = {x: _bel_pl(items, rx) for x, (rx, _) in zip(m.elements(), items)}
    return {x: b for x, (b, _) in rows.items()}, {x: p for x, (_, p) in rows.items()}


class _Density(namedtuple("_Density", "tables empty den")):
    """The exact part density of a mass: per byte of a part bitset, the
    table of sums of q over the byte's set bits; the numerator the empty
    element gets; and the one denominator of every sum."""

    __slots__ = ()

    def over(self, bitsets):
        """The value of each bitset, its exact sum rounded once; bitsets
        hold the empty element first, as alive bitsets do."""
        raw = array("Q", bitsets).tobytes()
        columns = map(raw.__getitem__, _COLUMNS[:len(self.tables)])
        sums = reduce(partial(map, add), map(map, [t.__getitem__ for t in self.tables], columns))
        values = array("d", map(truediv, sums, repeat(self.den)))
        if self.empty:
            values[0] = self.empty / self.den
        return values

    def at(self, bits):
        """The value of one bitset, as over gives it."""
        total = sum(map(getitem, self.tables, bits.to_bytes(len(self.tables), "little")))
        return (total if bits else self.empty) / self.den


def _density(model, m, zero_cardinality):
    """The part density of m under model, and the warnings for mass skipped.

    zero_cardinality says what to do with mass on elements the model gives
    cardinality 0: "skip" drops it with a warning, "to_empty" moves it to
    the empty element.
    """
    focal, stranded, warnings = [], [], []
    for rx, v in _reduced_items(m, model):
        if rx:
            focal.append((rx, v))
        elif v:
            if zero_cardinality == "to_empty":
                stranded.append(v)
            else:
                warnings.append(f"mass {float(v):g} on forbidden element skipped by the transform")
    ints, den = _over_one_den([v for _, v in focal] + stranded)
    cards = lcm(*(rx.bit_count() for rx, _ in focal))
    q = [0] * model.frame.part_count
    for (rx, _), n in zip(focal, ints):
        w = n * (cards // rx.bit_count())
        while rx:
            low = rx & -rx
            q[low.bit_length() - 1] += w
            rx ^= low
    empty = sum(ints[len(focal):]) * cards
    return _Density(_per_byte(q, 0, add), empty, cards * den), tuple(warnings)


@dataclass(frozen=True)
class PignisticDistribution:
    """Probability attached to every element the model keeps distinct: bits
    holds their reduced bitsets, empty first, and values one float each.
    density answers prob for any element; gpt and cpt set it."""

    model: Model
    bits: object
    values: object
    warnings: tuple = ()
    density: _Density = field(default=None, repr=False, compare=False)

    def prob(self, element):
        """The value of element's reduction, the one the table holds."""
        return self.density.at(self.model.reduce(element).bits)

    def items(self):
        """An iterator of (LatticeElement, value) per row, each element built
        as it is read."""
        return zip(map(partial(LatticeElement, self.model.frame), self.bits), self.values)


def _spread(model, m, zero_cardinality):
    """The pignistic table of m over the model's alive elements."""
    density, warnings = _density(model, m, zero_cardinality)
    # alive_elements(as_bits=True) is alive_bits under the name perfbench's
    # tracer times lattice enumeration by
    bits = model.alive_elements(as_bits=True)
    return PignisticDistribution(model, bits, density.over(bits), warnings, density)


def gpt(model, m):
    """Pignistic transform with model cardinalities, defined on the whole
    reduced lattice."""
    return _spread(model, m, "skip")


def cpt(model, m):
    """Classical pignistic transform; needs every pair of hypotheses
    exclusive so cardinalities count surviving singletons."""
    if not model.is_shafer_compatible():
        raise ModelNotShafer("classical transform needs pairwise-exclusive hypotheses")
    return _spread(model, m, "to_empty")


@dataclass(frozen=True)
class DecisionResult:
    choice: object
    score: float
    tie: bool
    ranking: tuple


def decide(dist, candidates=None):
    """Pick the candidate with the highest pignistic probability.

    Defaults to the hypotheses themselves. Exact ties go to the earliest
    candidate and are flagged.
    """
    model = dist.model
    if candidates is None:
        atoms = (model.reduce(model.frame.atom(i)) for i in range(1, model.frame.n + 1))
        candidates = [c for c in dict.fromkeys(atoms) if c.bits]  # distinct, in order
    else:
        candidates = [model.reduce(c) for c in candidates]
    if not candidates:
        raise EmptyCandidates("no candidates to decide between")
    scored = [(c, dist.prob(c)) for c in candidates]
    best = max(s for _, s in scored)
    winners = [c for c, s in scored if s == best]
    ranking = tuple(sorted(scored, key=lambda cs: -cs[1]))
    return DecisionResult(winners[0], best, len(winners) > 1, ranking)
