import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse.decision import (
    bel,
    bel_improved,
    bel_pl_tables,
    cpt,
    decide,
    gpt,
    pl,
    pl_improved,
)
from dsmfuse.errors import EmptyArgument, EmptyCandidates, FrameMismatch, ModelNotShafer
from dsmfuse.lattice import (
    Frame,
    LatticeElement,
    Model,
    dsm_cardinality,
    enumerate_bitsets,
    enumerate_hyper_power_set,
    exclusivity,
)
from dsmfuse.mass import PreciseMass
from dsmfuse.rules import dempster, dsm_hybrid, smets

F3 = Frame(("th1", "th2", "th3"))
TH1, TH2, TH3 = F3.atom(1), F3.atom(2), F3.atom(3)
SHAFER = Model.shafer(F3)
THIRD_RULED_OUT = Model.shafer(F3, [TH3])


def reports():
    m1 = PreciseMass(F3, {TH1: 0.1, TH2: 0.4, TH3: 0.2, TH1 | TH2: 0.3})
    m2 = PreciseMass(F3, {TH1: 0.5, TH2: 0.1, TH3: 0.3, TH1 | TH2: 0.1})
    return m1, m2


def random_shafer_mass(rng):
    els = [el for el in SHAFER.alive_elements() if not el.is_empty]
    chosen = rng.sample(els, 3)
    weights = [rng.random() + 1e-3 for _ in chosen]
    t = sum(weights)
    return PreciseMass(F3, {el: w / t for el, w in zip(chosen, weights)})


# --- belief and plausibility -----------------------------------------------------

def test_bel_pl_on_a_known_mass():
    m = PreciseMass(F3, {TH1: 0.4, TH1 | TH2: 0.3, TH1 | TH2 | TH3: 0.3})
    assert bel(m, TH1, SHAFER) == pytest.approx(0.4)
    assert bel(m, TH1 | TH2, SHAFER) == pytest.approx(0.7)
    assert pl(m, TH3, SHAFER) == pytest.approx(0.3)
    assert pl(m, TH1, SHAFER) == pytest.approx(1.0)


def test_bel_pl_match_containment_scan():
    rng = random.Random(21)
    for _ in range(30):
        m = random_shafer_mass(rng)
        for a in SHAFER.alive_elements():
            ra = SHAFER.reduce(a)
            expect_bel = sum(v for el, v in m.items()
                             if not SHAFER.reduce(el).is_empty
                             and SHAFER.reduce(el).bits & ~ra.bits == 0)
            expect_pl = sum(v for el, v in m.items()
                            if SHAFER.reduce(el).bits & ra.bits)
            assert bel(m, a, SHAFER) == pytest.approx(expect_bel, abs=1e-12)
            assert pl(m, a, SHAFER) == pytest.approx(expect_pl, abs=1e-12)


def test_bel_never_exceeds_pl():
    rng = random.Random(22)
    for _ in range(30):
        m = random_shafer_mass(rng)
        for a in SHAFER.alive_elements():
            if SHAFER.reduce(a).is_empty:
                continue
            assert bel(m, a, SHAFER) <= pl(m, a, SHAFER) + 1e-12


def test_weighted_bel_pl():
    m = PreciseMass(F3, {TH1: 0.4, TH1 | TH2: 0.6})
    # under Shafer C(th1)=1, C(th1|th2)=2
    assert bel_improved(m, TH1 | TH2, SHAFER) == pytest.approx(0.4 * 1 / 2 + 0.6)
    assert pl_improved(m, TH1, SHAFER) == pytest.approx(0.4 + 0.6 * 1 / 2)
    with pytest.raises(EmptyArgument):
        bel_improved(m, TH3, THIRD_RULED_OUT)
    with pytest.raises(EmptyArgument):
        pl_improved(m, TH3, THIRD_RULED_OUT)


# --- pignistic spread ---------------------------------------------------------------

def test_pignistic_of_the_normalized_consensus():
    m1, m2 = reports()
    r = dempster(THIRD_RULED_OUT, [m1, m2])
    dist = gpt(r.model, r.mass)
    assert dist.prob(TH1) == pytest.approx(0.642857, abs=1e-6)
    assert dist.prob(TH2) == pytest.approx(0.357143, abs=1e-6)
    assert dist.prob(TH1 | TH2) == pytest.approx(1.0, abs=1e-9)
    d = decide(dist)
    assert d.choice == THIRD_RULED_OUT.reduce(TH1)
    assert not d.tie


def test_pignistic_matches_expansion_oracle():
    rng = random.Random(23)
    model = Model.hybrid(F3, [exclusivity(F3, 1, 3)])
    els = [el for el in model.alive_elements() if not el.is_empty]
    for _ in range(20):
        chosen = rng.sample(els, 3)
        weights = [rng.random() + 1e-3 for _ in chosen]
        t = sum(weights)
        m = PreciseMass(F3, {el: w / t for el, w in zip(chosen, weights)})
        dist = gpt(model, m)
        for a in model.alive_elements():
            expect = 0.0
            for x, v in m.items():
                cx = dsm_cardinality(model, x)
                if cx == 0:
                    continue
                expect += v * dsm_cardinality(model, a & x) / cx
            assert dist.prob(a) == pytest.approx(expect, abs=1e-12)


def test_pignistic_is_additive():
    rng = random.Random(24)
    model = Model.free(F3)
    els = [el for el in enumerate_hyper_power_set(F3) if not el.is_empty]
    for _ in range(20):
        chosen = rng.sample(els, 3)
        weights = [rng.random() + 1e-3 for _ in chosen]
        t = sum(weights)
        m = PreciseMass(F3, {el: w / t for el, w in zip(chosen, weights)})
        dist = gpt(model, m)
        x, y = rng.choice(els), rng.choice(els)
        assert dist.prob(x | y) == pytest.approx(
            dist.prob(x) + dist.prob(y) - dist.prob(x & y), abs=1e-9
        )


def test_vacuous_mass_spreads_by_cardinality():
    model = Model.hybrid(F3, [exclusivity(F3, 1, 3), exclusivity(F3, 2, 3)])
    m = PreciseMass.vacuous(F3)
    r = dsm_hybrid(model, [m, m])
    dist = gpt(r.model, r.mass)
    assert dist.prob(TH3) == pytest.approx(0.25)
    assert dist.prob(TH1) == pytest.approx(0.5)
    assert dist.prob(TH1 & TH2) == pytest.approx(0.25)
    assert dist.prob(TH1 | TH2) == pytest.approx(0.75)


def test_bel_betp_pl_sandwich():
    rng = random.Random(25)
    for _ in range(30):
        m = random_shafer_mass(rng)
        dist = gpt(SHAFER, m)
        for i in range(1, 4):
            a = F3.atom(i)
            assert bel(m, a, SHAFER) - 1e-9 <= dist.prob(a) <= pl(m, a, SHAFER) + 1e-9


def test_classical_transform_agrees_under_shafer():
    rng = random.Random(26)
    for _ in range(20):
        m = random_shafer_mass(rng)
        g = gpt(SHAFER, m)
        c = cpt(SHAFER, m)
        assert dict(g.items()) == dict(c.items())


def test_classical_transform_routes_conflict_to_empty():
    m1, m2 = reports()
    r = smets(THIRD_RULED_OUT, [m1, m2])
    dist = cpt(THIRD_RULED_OUT, r.mass)
    assert dist.prob(F3.empty()) == pytest.approx(0.65)
    assert dist.prob(TH1) == pytest.approx(0.225)
    assert dist.prob(TH2) == pytest.approx(0.125)
    g = gpt(THIRD_RULED_OUT, r.mass)
    assert g.prob(F3.empty()) == 0.0
    assert any("skipped" in w for w in g.warnings)


def test_classical_transform_rejects_overlapping_models():
    m = PreciseMass.vacuous(F3)
    with pytest.raises(ModelNotShafer):
        cpt(Model.free(F3), m)


def ref_spread(model, m, zero_cardinality):
    """The pignistic table as the sum that defines it: per alive element, in
    exact Fractions, the share of every focal element it meets, rounded once."""
    alive = model.alive_elements()
    values = {el: Fraction(0) for el in alive}
    warnings = []
    empty = model.frame.empty()
    for x, v in m.items():
        rx = model.reduce(x)
        cx = rx.bits.bit_count()
        if cx == 0:
            if v:
                if zero_cardinality == "to_empty":
                    values[empty] += Fraction(v)
                else:
                    warnings.append(
                        f"mass {v:g} on forbidden element skipped by the transform"
                    )
            continue
        for el in alive:
            shared = (rx.bits & el.bits).bit_count()
            if shared:
                values[el] += Fraction(v) * shared / cx
    return {el: float(v) for el, v in values.items()}, tuple(warnings)


def assert_matches_ref_spread(model, m):
    values, warnings = ref_spread(model, m, "skip")
    g = gpt(model, m)
    assert [(el, v.hex()) for el, v in g.items()] == [(el, v.hex()) for el, v in values.items()]
    assert g.warnings == warnings
    if not model.is_shafer_compatible():
        with pytest.raises(ModelNotShafer):
            cpt(model, m)
        return
    values, warnings = ref_spread(model, m, "to_empty")
    c = cpt(model, m)
    assert [(el, v.hex()) for el, v in c.items()] == [(el, v.hex()) for el, v in values.items()]
    assert c.warnings == warnings


@st.composite
def model_and_mass(draw):
    n = draw(st.integers(1, 4))
    f = Frame(tuple(f"th{i}" for i in range(1, n + 1)))
    free = enumerate_bitsets(n)
    element = st.sampled_from(free).map(lambda b: LatticeElement(f, b))
    kind = draw(st.sampled_from(["free", "shafer", "hybrid"]))
    constraints = [] if kind == "free" else draw(st.lists(element, max_size=2))
    model = Model(f, kind, constraints)
    # focal elements anywhere in the free lattice: the empty element and
    # elements the model forbids carry mass too
    masses = draw(st.dictionaries(element, st.floats(0.0, 1.0), min_size=1, max_size=6))
    return model, PreciseMass(f, masses)


@given(model_and_mass())
@settings(max_examples=200, deadline=None)
def test_pignistic_spread_matches_the_dict_oracle(case):
    assert_matches_ref_spread(*case)


def test_pignistic_spread_matches_the_dict_oracle_on_five_hypotheses():
    # 31 parts: the density's four byte tables, the last one partly filled
    f = Frame(tuple(f"th{i}" for i in range(1, 6)))
    rng = random.Random(27)
    free = enumerate_bitsets(5)
    focal = [LatticeElement(f, b) for b in rng.sample(free[1:], 12)] + [f.total_ignorance()]
    weights = [rng.random() for _ in focal]
    m = PreciseMass(f, {el: w / sum(weights) for el, w in zip(focal, weights)})
    assert_matches_ref_spread(Model.free(f), m)
    assert_matches_ref_spread(Model.shafer(f), m)


def test_classical_transform_gives_forbidden_mass_to_the_empty_element_exactly():
    # three forbidden elements: 0.1 + 0.2 + 0.3 added in turn as floats is
    # 0.6000000000000001, their exact sum rounded once is 0.6
    m = PreciseMass(F3, {TH1 & TH2: 0.1, TH1 & TH3: 0.2, TH2 & TH3: 0.3, TH1: 0.4})
    c = cpt(THIRD_RULED_OUT, m)
    assert c.prob(F3.empty()) == 0.6
    assert dict(c.items())[F3.empty()] == 0.6
    assert not c.warnings
    assert_matches_ref_spread(THIRD_RULED_OUT, m)


@given(model_and_mass())
@settings(max_examples=100, deadline=None)
def test_decisions_agree_with_the_table(case):
    model, m = case
    dist = gpt(model, m)
    table = dict(zip(dist.bits, dist.values))
    assert len(table) == len(dist.values)
    for el in model.alive_elements():
        assert dist.prob(el) == table[el.bits]
    atoms = {model.reduce(model.frame.atom(i)).bits for i in range(1, model.frame.n + 1)} - {0}
    if not atoms:
        with pytest.raises(EmptyCandidates):
            decide(dist)
        return
    d = decide(dist)
    assert d.score == table[d.choice.bits]
    assert d.tie == any(table[b] == d.score for b in atoms - {d.choice.bits})
    other = Frame(model.frame.labels + ("other",))
    with pytest.raises(FrameMismatch):
        dist.prob(other.atom(1))


# --- decisions ------------------------------------------------------------------------

def test_decide_ranking_and_candidates():
    m1, m2 = reports()
    r = dsm_hybrid(THIRD_RULED_OUT, [m1, m2])
    dist = gpt(r.model, r.mass)
    d = decide(dist)
    assert d.choice == THIRD_RULED_OUT.reduce(TH1)
    assert [c.expr(style="ascii") for c, _ in d.ranking] == ["th1", "th2"]
    limited = decide(dist, candidates=[TH2])
    assert limited.choice == THIRD_RULED_OUT.reduce(TH2)


def test_decide_flags_exact_ties():
    m = PreciseMass(F3, {TH1: 0.5, TH2: 0.5})
    dist = gpt(SHAFER, m)
    d = decide(dist)
    assert d.tie
    assert d.choice == SHAFER.reduce(TH1)


def test_decide_needs_candidates():
    f = Frame(("a",))
    dead = Model.hybrid(f, [f.atom(1)])
    m = PreciseMass(f, {f.atom(1): 1.0})
    dist = gpt(dead, m)
    with pytest.raises(EmptyCandidates):
        decide(dist)


# --- bel and pl in one pass: the four loops it replaced, as the oracle ------------

def ref_reduced_items(m, model):
    """(reduced bitset, value) per focal element of m, in m's order."""
    return [(model.reduce(el).bits, v) for el, v in m.items()]


def ref_bel(items, ra):
    total = 0.0
    for rx, v in items:
        if rx and rx & ~ra == 0:
            total += v
    return total


def ref_pl(items, ra):
    total = 0.0
    for rx, v in items:
        if rx & ra:
            total += v
    return total


def ref_bel_improved(items, ra):
    ca = ra.bit_count()
    if ca == 0:
        raise EmptyArgument("weighted belief undefined on a forbidden element")
    total = 0.0
    for rx, v in items:
        if rx and rx & ~ra == 0:
            total += v * rx.bit_count() / ca
    return total


def ref_pl_improved(items, ra):
    if ra == 0:
        raise EmptyArgument("weighted plausibility undefined on a forbidden element")
    total = 0.0
    for rx, v in items:
        inter = rx & ra
        if inter:
            total += v * inter.bit_count() / (rx | ra).bit_count()
    return total


def ref_query(form, m, a, model):
    """form over m's reduced focal items and a's reduced bitset."""
    model = model or Model.free(m.frame)
    ra = model.reduce(a).bits
    return form(ref_reduced_items(m, model), ra)


def ref_bel_pl_tables(m, model):
    """bel and pl of each focal element of m, keyed by it, from one
    reduction of m's focal elements."""
    items = ref_reduced_items(m, model)
    keys = m.elements()
    return (dict(zip(keys, [ref_bel(items, rx) for rx, _ in items])),
            dict(zip(keys, [ref_pl(items, rx) for rx, _ in items])))


def outcome(f, *args):
    """repr of f's value, or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc), str(exc)


# floats, NaN, signed zeros, subnormals and exact Fractions
MASS_VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([float("nan"), 0.0, -0.0, 1e-320, 5e-324]),
    st.fractions(0, 1, max_denominator=12),
)


@st.composite
def bel_pl_case(draw):
    n = draw(st.integers(1, 4))
    f = Frame(tuple(f"th{i}" for i in range(1, n + 1)))
    element = st.sampled_from(enumerate_bitsets(n)).map(lambda b: LatticeElement(f, b))
    kind = draw(st.sampled_from(["free", "shafer", "hybrid"]))
    constraints = [] if kind == "free" else draw(st.lists(element, max_size=2))
    masses = draw(st.dictionaries(element, MASS_VALUES, max_size=6))
    if draw(st.booleans()):
        masses[f.empty()] = draw(st.sampled_from([1e-320, Fraction(1, 10**9)]))
    # queries anywhere in the free lattice, forbidden and empty ones included
    queries = draw(st.lists(element, min_size=1, max_size=4))
    if draw(st.booleans()):
        queries.append(Frame(f.labels + ("other",)).atom(1))
    return Model(f, kind, constraints), PreciseMass(f, masses), queries


@given(bel_pl_case())
@settings(max_examples=300, deadline=None)
def test_one_pass_bel_pl_matches_the_four_loops(case):
    model, m, queries = case
    forms = ((bel, ref_bel), (pl, ref_pl), (bel_improved, ref_bel_improved),
             (pl_improved, ref_pl_improved))
    for given_model in (model, None):
        for a in queries:
            for form, ref in forms:
                assert outcome(form, m, a, given_model) == outcome(ref_query, ref, m, a,
                                                                   given_model)
    assert outcome(bel_pl_tables, m, model) == outcome(ref_bel_pl_tables, m, model)
