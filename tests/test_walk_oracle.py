"""The shared-prefix combination walk and the exact fold against a literal
tuple walk.

The oracle visits every focal tuple with itertools.product and applies the
walk's value algebra literally: it reads each value, folds the values left
with the kernel and sums with add. It recomputes each tuple's landing from
its focal elements: the transfer, meet and join landings are written out here
on whole element tuples. In place of the fold it does the same in exact
Fractions, so the fold's results must be the exact sums rounded once.
Patched in for the walk, the fold and their plans, it must give every
public rule, T-norm, T-conorm and triple fusion the same masses, conflict
and warnings, floats compared with ==, or the same error.
"""

import itertools
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm
from operator import add, and_, attrgetter, mul, or_, truediv

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsmfuse import neutro, rules
from dsmfuse.lattice import (
    Frame,
    LatticeElement,
    Model,
    component_union,
    enumerate_hyper_power_set,
    upward_closure,
)
from dsmfuse.mass import ImpreciseMass, PreciseMass, SubunitarySet, lift
from dsmfuse.neutro import NeutrosophicTriple, TripleMass


# --- the oracle ---------------------------------------------------------------------

def focal_items(m):
    if isinstance(m, ImpreciseMass):
        return [(el, s) for el, s in m.items() if not (s.is_point and s.as_point() == 0.0)]
    return [(el, v) for el, v in m.items() if v != 0.0]


def tuple_walk(sources, plan, kernel=mul, add=add, zero=0.0, read=None):
    """Each tuple on its own, under the walk's value algebra: read each of
    its values (when read is given), fold its facts and values left with
    step and kernel, land it and sum with add from zero. Handed back as
    the walk hands its sums back: on int keys, over the denominator 1."""
    facts, step, land = plan
    acc = {}
    conflict = lost = zero
    for combo in itertools.product(*map(focal_items, sources)):
        if read is not None:
            combo = [(el, read(v)) for el, v in combo]
        (el, v), rest = combo[0], combo[1:]
        state = facts(el)
        for el, w in rest:
            state, v = step(state, facts(el)), kernel(v, w)
        key, weight, dead = land(state)
        value = v if weight is None else weight * v
        if dead:
            conflict = add(conflict, v)
        if key is None:
            lost = add(lost, value)
        else:
            acc[key] = add(acc.get(key, zero), value)
    return acc, conflict, lost, 1


def fraction_walk(sources, plan):
    """The tuple walk in exact Fractions, handed back as the fold hands its
    sums back: ints on int keys over one denominator."""
    acc, conflict, lost, _ = tuple_walk(sources, plan, zero=Fraction(0), read=Fraction)
    den = lcm(*(x.denominator for x in (*acc.values(), conflict, lost)))

    def exact(x):
        return x.numerator * (den // x.denominator)

    return {k: exact(x) for k, x in acc.items()}, exact(conflict), exact(lost), den


def on_tuples(land):
    """A plan whose state is the tuple of focal elements itself."""
    return (lambda el: (el,)), (lambda a, b: a + b), land


def names(x):
    """The union of the hypotheses x names: none for the empty element."""
    return component_union(x) if x.bits else x


def route(model, s3_target):
    it = model.reduce(model.frame.total_ignorance())

    def land(els):
        inter = reduce(and_, els)
        if model.reduce(inter).bits:
            return model.reduce(inter).bits, None, False
        if inter.bits == 0:
            inter = reduce(and_, [upward_closure(e) for e in els])
        if all(model.is_model_empty(e) for e in els):
            target = model.reduce(reduce(or_, [names(e) for e in els]))
        elif s3_target == rules.S3_COMPONENTS:
            target = model.reduce(names(inter))
        else:
            target = model.reduce(reduce(or_, els))
        return (target if target.bits else it).bits, None, True

    return on_tuples(land)


def meet(model, dead=None):
    def land(els):
        key = model.reduce(reduce(and_, els))
        return (key.bits, None, False) if key.bits else (dead, None, True)

    return on_tuples(land)


def join(model):
    return on_tuples(lambda els: (model.reduce(reduce(or_, els)).bits, None, False))


def patch_in_the_oracle(mp):
    for module in (rules, neutro):
        mp.setattr(module, "_walk", tuple_walk)
        mp.setattr(module, "_transfer_plan", route)
        mp.setattr(module, "_join_plan", join)
    mp.setattr(rules, "_fold", fraction_walk)
    mp.setattr(rules, "_meet_plan", meet)


# --- inputs -------------------------------------------------------------------------

@lru_cache(maxsize=None)
def pool(n):
    return tuple(enumerate_hyper_power_set(Frame(tuple(f"h{i}" for i in range(1, n + 1))))[1:])


@st.composite
def fusions(draw):
    """(model, sources): precise, lifted, set-valued or triple sources on a
    free, shafer or hybrid model; focal elements may be reduced keys, a
    precise source may hold Fractions, and a precise or lifted source may
    carry a speck of mass on the empty element."""
    els = pool(draw(st.integers(2, 4)))
    frame = els[0].frame
    kind = draw(st.sampled_from(["free", "shafer", "hybrid"]))
    if kind == "free":
        model = Model.free(frame)
    else:
        dead = draw(st.lists(st.sampled_from(els), min_size=int(kind == "hybrid"), max_size=2))
        model = Model(frame, kind, dead)
    values = draw(st.sampled_from(["precise", "lifted", "sets", "triple"]))
    k = draw(st.integers(2, {"precise": 4, "lifted": 3, "sets": 3, "triple": 3}[values]))
    sources = []
    for _ in range(k):
        focal = draw(st.lists(st.sampled_from(els), min_size=1, max_size=4, unique=True))
        focal = [model.reduce(e) if model.reduce(e).bits and draw(st.booleans()) else e
                 for e in focal]
        focal = list(dict.fromkeys(focal))
        weights = draw(st.lists(st.integers(1, 100), min_size=len(focal),
                                max_size=len(focal)))
        ratio = Fraction if values == "precise" and draw(st.booleans()) else truediv
        masses = {e: ratio(w, sum(weights)) for e, w in zip(focal, weights)}
        if values == "triple":
            sources.append(TripleMass(frame, {e: NeutrosophicTriple.of(
                *draw(st.tuples(*[st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])] * 3)))
                for e in focal}))
            continue
        if values in ("precise", "lifted") and draw(st.integers(0, 9)) == 0:
            masses[frame.empty()] = 1e-10
        m = PreciseMass(frame, masses)
        if values == "lifted":
            m = lift(m)
        elif values == "sets":
            m = ImpreciseMass(frame, {e: draw(sets_around(v)) for e, v in masses.items()})
        sources.append(m)
    return model, sources


def sets_around(v):
    point = st.just(SubunitarySet.point(v))
    spread = st.tuples(st.floats(0, 0.1), st.floats(0, 0.1), st.booleans(), st.booleans())
    interval = spread.map(
        lambda t: SubunitarySet.interval(max(0.0, v - t[0]), min(1.0, v + t[1]), t[2], t[3]))
    return st.one_of(point, interval)


def calls(model, sources):
    for s3 in (rules.S3_COMPONENTS, rules.S3_UNION):
        yield lambda: rules.dsm_hybrid(model, sources, s3)
        yield lambda: rules.dsmh_improved(model, sources, s3)
        for norm in rules.TNORMS:
            yield lambda: rules.tnorm_fusion(norm, sources, model, s3)
            yield lambda: neutro.nnorm_fusion(norm, sources, model, s3)
    yield lambda: rules.dsm_classic(sources)
    for rule in (rules.dempster, rules.smets, rules.yager, rules.dubois_prade):
        yield lambda: rule(model, sources)
    for rule in (rules.disjunctive, rules.dsmc_improved, rules.disjunctive_improved):
        yield lambda: rule(sources, model)
    for conorm in rules.TCONORMS:
        yield lambda: rules.tconorm_fusion(conorm, sources, model)
        yield lambda: neutro.nconorm_fusion(conorm, sources, model)


def outcome(call):
    try:
        r = call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return r.rule, r.mass.items(), r.conflict, r.warnings


@settings(max_examples=60, deadline=None)
@given(fusions())
def test_the_walk_equals_the_tuple_walk(case):
    model, sources = case
    got = [outcome(call) for call in calls(model, sources)]
    with pytest.MonkeyPatch.context() as mp:
        patch_in_the_oracle(mp)
        want = [outcome(call) for call in calls(model, sources)]
    assert got == want


# --- the alive fold against raw facts -------------------------------------------------
#
# The meet and join plans fold focal bitsets already reduced by the model. The
# plans below are those same plans on the raw bitsets, reduced only where a
# state lands; the sums are exact ints, so the two must agree with ==.

def raw_meet_plan(model, dead=None):
    alive = ~model.emptied
    return (attrgetter("bits"), and_,
            lambda meet: (meet & alive, None, False) if meet & alive else (dead, None, True))


def raw_join_plan(model):
    alive = ~model.emptied
    return attrgetter("bits"), or_, lambda join: (join & alive, None, False)


@st.composite
def constrained_fusions(draw):
    """(model, sources): 2-6 precise sources on a shafer or hybrid model of
    2-5 hypotheses. Focal elements are often forbidden (the meet of an
    element with a constraint or an overlap of two hypotheses), masses are
    floats or Fractions, and a source may carry a speck of mass on the
    empty element."""
    n = draw(st.integers(2, 5))
    els = pool(n)
    frame = els[0].frame
    kind = draw(st.sampled_from(["shafer", "hybrid"]))
    model = Model(frame, kind, draw(st.lists(st.sampled_from(els), min_size=int(kind == "hybrid"),
                                             max_size=2)))
    assume(not model.is_degenerate())
    dead = list(model.constraints)
    if kind == "shafer":
        dead += [frame.atom(i) & frame.atom(j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    element = st.sampled_from(els)
    forbidden = st.builds(and_, element, st.sampled_from(dead))
    sources = []
    for _ in range(draw(st.integers(2, 6))):
        focal = draw(st.lists(st.one_of(element, forbidden), min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 100), min_size=len(focal), max_size=len(focal)))
        ratio = draw(st.sampled_from([Fraction, truediv]))
        masses = {e: ratio(w, sum(weights)) for e, w in zip(focal, weights)}
        if draw(st.integers(0, 4)) == 0:
            masses[LatticeElement(frame, 0)] = ratio(1, 10 ** 10)
        sources.append(PreciseMass(frame, masses))
    return model, sources


@settings(max_examples=100, deadline=None)
@given(constrained_fusions())
def test_the_alive_plans_fold_as_the_raw_plans(case):
    model, sources = case
    it = model.reduce(model.frame.total_ignorance()).bits
    # dempster, smets, yager and the disjunctive rule
    pairs = [(rules._meet_plan(model, dead), raw_meet_plan(model, dead)) for dead in (None, 0, it)]
    pairs.append((rules._join_plan(model), raw_join_plan(model)))
    for alive_plan, raw_plan in pairs:
        assert rules._fold(sources, alive_plan) == rules._fold(sources, raw_plan)
    # the T-conorms walk the join plan
    for kernel in rules.TCONORMS.values():
        assert (rules._walk(sources, rules._join_plan(model), kernel)
                == rules._walk(sources, raw_join_plan(model), kernel))
