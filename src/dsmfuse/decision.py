"""Belief, plausibility, pignistic probabilities, and decisions.

Subset and overlap tests run on model-reduced bitsets, so a query element
and a focal element compare the way the model sees them. The pignistic
transforms spread each focal element's mass over the lattice in proportion
to shared cardinality; the classical variant additionally routes mass on
zero-cardinality elements to the empty element (the 0/0 = 1 reading of the
empty-over-empty ratio), which keeps open-world masses accounted for.
"""

from dataclasses import dataclass

from .errors import EmptyArgument, EmptyCandidates, ModelNotShafer
from .lattice import Model


def _reduced_items(m, model):
    return [(model.reduce(el), v) for el, v in m.items()]


def bel(m, a, model=None):
    """Total mass of focal elements contained in a (empty ones aside)."""
    model = model or Model.free(m.frame)
    ra = model.reduce(a)
    total = 0.0
    for rx, v in _reduced_items(m, model):
        if rx.bits and rx.bits & ~ra.bits == 0:
            total += v
    return total


def pl(m, a, model=None):
    """Total mass of focal elements overlapping a."""
    model = model or Model.free(m.frame)
    ra = model.reduce(a)
    total = 0.0
    for rx, v in _reduced_items(m, model):
        if rx.bits & ra.bits:
            total += v
    return total


def bel_improved(m, a, model=None):
    """Inclusion-weighted belief: each contained focal element counts in
    proportion to its share of a's cardinality."""
    model = model or Model.free(m.frame)
    ra = model.reduce(a)
    ca = ra.bits.bit_count()
    if ca == 0:
        raise EmptyArgument("weighted belief undefined on a forbidden element")
    total = 0.0
    for rx, v in _reduced_items(m, model):
        if rx.bits and rx.bits & ~ra.bits == 0:
            total += v * rx.bits.bit_count() / ca
    return total


def pl_improved(m, a, model=None):
    """Overlap-weighted plausibility: each overlapping focal element counts
    by its overlap fraction |x meet a| / |x join a|."""
    model = model or Model.free(m.frame)
    ra = model.reduce(a)
    if ra.bits == 0:
        raise EmptyArgument("weighted plausibility undefined on a forbidden element")
    total = 0.0
    for rx, v in _reduced_items(m, model):
        inter = rx.bits & ra.bits
        if inter:
            total += v * inter.bit_count() / (rx.bits | ra.bits).bit_count()
    return total


@dataclass(frozen=True)
class PignisticDistribution:
    """Probability attached to every element the model keeps distinct."""

    model: Model
    values: dict
    warnings: tuple = ()

    def prob(self, element):
        return self.values[self.model.reduce(element)]

    def items(self):
        return self.values.items()


def _spread(model, m, zero_cardinality):
    """Shared pignistic accumulation.

    zero_cardinality says what to do with mass on elements the model gives
    cardinality 0: "skip" drops it with a warning, "to_empty" moves it to
    the empty element, which the alive list holds first. Each focal element
    adds w[shared] to every alive element, w[0] being 0.0, so an element it
    does not reach keeps its value exactly.
    """
    alive = model.alive_elements()
    alive_bits = [el.bits for el in alive]
    acc = [0.0] * len(alive)
    warnings = []
    for rx, v in _reduced_items(m, model):
        xb = rx.bits
        cx = xb.bit_count()
        if cx == 0:
            if v:
                if zero_cardinality == "to_empty":
                    acc[0] += v
                else:
                    warnings.append(
                        f"mass {v:g} on forbidden element skipped by the transform"
                    )
            continue
        w = [0.0] + [v * shared / cx for shared in range(1, cx + 1)]
        acc = [t + w[(xb & b).bit_count()] for t, b in zip(acc, alive_bits)]
    return dict(zip(alive, acc)), tuple(warnings)


def gpt(model, m):
    """Pignistic transform with model cardinalities, defined on the whole
    reduced lattice."""
    values, warnings = _spread(model, m, "skip")
    return PignisticDistribution(model, values, warnings)


def cpt(model, m):
    """Classical pignistic transform; needs every pair of hypotheses
    exclusive so cardinalities count surviving singletons."""
    if not model.is_shafer_compatible():
        raise ModelNotShafer("classical transform needs pairwise-exclusive hypotheses")
    values, warnings = _spread(model, m, "to_empty")
    return PignisticDistribution(model, values, warnings)


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
