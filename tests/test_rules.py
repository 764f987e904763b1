import copy
import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import lcm
from operator import add, mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsmfuse import rules
from dsmfuse.decision import gpt
from dsmfuse.errors import (
    DegenerateModel,
    DegenerateNormalization,
    FewerThanTwoSources,
    FrameMismatch,
    NotASubset,
    TotalConflict,
    ValidationError,
)
from dsmfuse.lattice import Frame, LatticeElement, Model, enumerate_hyper_power_set, exclusivity
from dsmfuse.mass import ImpreciseMass, PreciseMass, SubunitarySet, _MassBase, lift, parse_set
from dsmfuse.neutro import (
    NeutrosophicTriple, TripleMass, nconorm, nconorm_fusion, nnorm, nnorm_fusion,
)
from dsmfuse.rules import (
    S3_COMPONENTS,
    _fold,
    _join_plan,
    _transfer_plan,
    S3_UNION,
    degree_of_inclusion,
    degree_of_intersection,
    degree_of_union,
    dempster,
    disjunctive,
    disjunctive_improved,
    dsm_classic,
    dsm_classic_imprecise,
    dsm_hybrid,
    dsm_hybrid_imprecise,
    dsmc_improved,
    dsmh_improved,
    dubois_prade,
    smets,
    tconorm_fusion,
    tnorm_fusion,
    yager,
)

F3 = Frame(("th1", "th2", "th3"))
TH1, TH2, TH3 = F3.atom(1), F3.atom(2), F3.atom(3)


def two_reports():
    """The worked two-source example used across the rule comparisons."""
    m1 = PreciseMass(F3, {TH1: 0.1, TH2: 0.4, TH3: 0.2, TH1 | TH2: 0.3})
    m2 = PreciseMass(F3, {TH1: 0.5, TH2: 0.1, TH3: 0.3, TH1 | TH2: 0.1})
    return m1, m2


THIRD_RULED_OUT = Model.shafer(F3, [TH3])


def as_plain_dict(report):
    return {el.expr(style="ascii") or "{}": round(v, 9)
            for el, v in report.mass.items()}


# --- conjunctive consensus on the free lattice --------------------------------------

def test_classic_two_source_values():
    m1, m2 = two_reports()
    r = dsm_classic([m1, m2])
    assert r.conflict == 0.0
    got = as_plain_dict(r)
    assert got == {
        "th1&th2": 0.21,
        "th1&th3": 0.13,
        "th2&th3": 0.14,
        "(th1&th3)|(th2&th3)": 0.11,
        "th1": 0.21,
        "th2": 0.11,
        "th3": 0.06,
        "th1|th2": 0.03,
    }


def test_classic_four_hypotheses():
    f = Frame(("th1", "th2", "th3", "th4"))
    m1 = PreciseMass(f, {f.atom(1): 0.6, f.atom(3): 0.4})
    m2 = PreciseMass(f, {f.atom(2): 0.2, f.atom(4): 0.8})
    r = dsm_classic([m1, m2])
    expect = {
        "th1&th2": 0.12,
        "th1&th4": 0.48,
        "th2&th3": 0.08,
        "th3&th4": 0.32,
    }
    assert as_plain_dict(r) == {k: round(v, 9) for k, v in expect.items()}


def random_mass(frame, rng, pool=None, focals=3):
    pool = pool or [el for el in
                    __import__("dsmfuse.lattice", fromlist=["x"]).enumerate_hyper_power_set(frame)
                    if not el.is_empty]
    chosen = rng.sample(pool, min(focals, len(pool)))
    weights = [rng.random() + 1e-3 for _ in chosen]
    total = sum(weights)
    return PreciseMass(frame, {el: w / total for el, w in zip(chosen, weights)})


def brute_conjunctive(sources):
    acc = {}
    frame = sources[0].frame
    for combo in itertools.product(*[m.items() for m in sources]):
        meet = combo[0][0]
        v = combo[0][1]
        for el, w in combo[1:]:
            meet = meet & el
            v *= w
        acc[meet] = acc.get(meet, 0.0) + v
    return acc


def test_classic_matches_double_loop_oracle():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.choice([2, 3])
        sources = [random_mass(F3, rng) for _ in range(k)]
        r = dsm_classic(sources)
        expect = brute_conjunctive(sources)
        got = dict(r.mass.items())
        assert set(got) == {el for el, v in expect.items() if v > 0}
        for el, v in got.items():
            assert v == pytest.approx(expect[el], abs=1e-12)


def test_classic_is_commutative_and_associative():
    rng = random.Random(12)
    for _ in range(20):
        a, b, c = (random_mass(F3, rng) for _ in range(3))
        ab_c = dsm_classic([dsm_classic([a, b]).mass, c]).mass
        a_bc = dsm_classic([a, dsm_classic([b, c]).mass]).mass
        ba = dsm_classic([b, a]).mass
        ab = dsm_classic([a, b]).mass
        for el, v in ab_c.items():
            assert v == pytest.approx(a_bc.mass(el), abs=1e-9)
        for el, v in ab.items():
            assert v == pytest.approx(ba.mass(el), abs=1e-9)


def test_many_sources_fuse():
    """The walk's depth does not grow with the number of sources."""
    sources = [PreciseMass(F3, {TH1 | TH2: 1.0})] * 1200
    assert dsm_classic(sources).mass_of(TH1 | TH2) == 1.0
    assert dsm_hybrid(THIRD_RULED_OUT, sources).mass_of(TH1 | TH2) == 1.0


def test_walk_memory_does_not_grow_with_the_tuples():
    """14 two-focal sources are 16,384 tuples; the walk keeps one pending
    prefix per focal item of a source on the path, not one per prefix."""
    sources = [PreciseMass(F3, {TH1 | TH2: 0.5, TH2 | TH3: 0.5})] * 14
    expected = dsm_classic(sources).mass
    tracemalloc.start()
    try:
        assert dsm_classic(sources).mass == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# --- transfer rule -------------------------------------------------------------------

def test_hybrid_reroutes_forbidden_mass():
    m1, m2 = two_reports()
    r = dsm_hybrid(THIRD_RULED_OUT, [m1, m2])
    assert r.conflict == pytest.approx(0.65)
    assert as_plain_dict(r) == {"th1": 0.34, "th2": 0.25, "th1|th2": 0.41}
    assert sum(v for _, v in r.mass.items()) == pytest.approx(1.0)


def test_hybrid_four_hypotheses_exclusive():
    f = Frame(("th1", "th2", "th3", "th4"))
    m1 = PreciseMass(f, {f.atom(1): 0.6, f.atom(3): 0.4})
    m2 = PreciseMass(f, {f.atom(2): 0.2, f.atom(4): 0.8})
    r = dsm_hybrid(Model.shafer(f), [m1, m2])
    assert as_plain_dict(r) == {
        "th1|th2": 0.12,
        "th2|th3": 0.08,
        "th1|th4": 0.48,
        "th3|th4": 0.32,
    }


@pytest.mark.parametrize("e1", [0.01, 0.1, 0.3])
@pytest.mark.parametrize("e2", [0.01, 0.1, 0.3])
def test_high_conflict_pair(e1, e2):
    m1 = PreciseMass(F3, {TH1: 1 - e1, TH3: e1})
    m2 = PreciseMass(F3, {TH2: 1 - e2, TH3: e2})
    r = dempster(Model.shafer(F3), [m1, m2])
    assert r.mass_of(TH3) == pytest.approx(1.0, abs=1e-9)
    h = dsm_hybrid(Model.shafer(F3), [m1, m2])
    assert h.mass_of(TH3) == pytest.approx(e1 * e2, abs=1e-9)
    assert h.mass_of(TH1 | TH2) == pytest.approx((1 - e1) * (1 - e2), abs=1e-9)


def test_nonexistential_constraint_moves_everything_to_the_survivor():
    f = Frame(("th1", "th2"))
    gone = Model.hybrid(f, [f.atom(1)])
    m1 = PreciseMass(f, {f.atom(1): 0.6, f.atom(2): 0.4})
    m2 = PreciseMass(f, {f.atom(1): 0.5, f.atom(2): 0.5})
    r = dsm_hybrid(gone, [m1, m2])
    assert r.mass_of(f.atom(2)) == pytest.approx(1.0)


def test_s3_target_choice_changes_the_landing_site():
    model = Model.hybrid(F3, [exclusivity(F3, 1, 2)])
    m1 = PreciseMass(F3, {TH1 & TH2: 0.5, TH3: 0.5})
    m2 = PreciseMass(F3, {TH3: 1.0})
    components = dsm_hybrid(model, [m1, m2])
    union = dsm_hybrid(model, [m1, m2], s3_target=S3_UNION)
    # the dead tuple's components span the whole frame, the plain join is
    # only (th1&th2)|th3 which reduces to th3
    assert components.mass_of(TH1 | TH2 | TH3) == pytest.approx(0.5)
    assert components.mass_of(TH3) == pytest.approx(0.5)
    assert union.mass_of(TH3) == pytest.approx(1.0)


def test_transfer_states_with_one_alive_meet_keep_their_own_s3_targets():
    # a and a|(b&c) reduce alike under shafer, yet their dead meets with b
    # name different components: a transfer fold that merged states by
    # their alive meet would land both halves on one target
    f = Frame(("a", "b", "c"))
    a, b, c = f.atom(1), f.atom(2), f.atom(3)
    model = Model.shafer(f)
    assert model.reduce(a) == model.reduce(a | (b & c))
    r = dsm_hybrid(model, [PreciseMass(f, {a: 0.5, a | (b & c): 0.5}), PreciseMass(f, {b: 1.0})])
    assert [(el, v) for el, v in r.mass.items()] == [(model.reduce(a | b), 0.5),
                                                   (model.reduce(a | b | c), 0.5)]
    assert r.conflict == 1.0


def test_vacuous_source_is_neutral_for_hybrid():
    rng = random.Random(13)
    model = Model.hybrid(F3, [exclusivity(F3, 1, 3)])
    alive = [el for el in model.alive_elements() if not el.is_empty]
    for _ in range(20):
        m = random_mass(F3, rng, pool=alive)
        r = dsm_hybrid(model, [m, PreciseMass.vacuous(F3)])
        for el, v in m.items():
            assert r.mass_of(el) == pytest.approx(v, abs=1e-9)


SPECK = 1e-10


@pytest.mark.parametrize("fuse, conflict", [
    (dsm_classic, SPECK),
    (lambda s: dsm_hybrid(Model.free(F3), s), SPECK),
    (lambda s: dsm_hybrid(Model.shafer(F3), s), 0.5),
    (lambda s: dsmh_improved(Model.shafer(F3), s), 0.5),
    (lambda s: tnorm_fusion("min", s), SPECK),
])
def test_a_speck_on_the_empty_element_lands_on_total_ignorance(fuse, conflict):
    # Validation tolerates a speck of mass on the empty element, which meets
    # everything in itself and names no hypothesis: its products take the
    # hybrid rule's fallback, total ignorance, and count as conflict.
    sources = [PreciseMass(F3, {F3.empty(): SPECK, TH1: 0.5, TH1 & TH2: 0.5 - SPECK}),
               PreciseMass(F3, {TH1: 1.0})]
    r = fuse(sources)
    assert r.mass_of(TH1 | TH2 | TH3) == pytest.approx(SPECK, rel=1e-6)
    assert r.conflict == pytest.approx(conflict, rel=1e-6)
    assert sum(v for _, v in r.mass.items()) == pytest.approx(1.0)


def test_a_speck_on_the_empty_element_fuses_on_two_hypotheses():
    f = Frame(("a", "b"))
    a, b = f.atom(1), f.atom(2)
    sources = [PreciseMass(f, {f.empty(): SPECK, a & b: 0.5, a: 0.5 - SPECK}),
               PreciseMass(f, {a & b: 1.0})]
    r = dsm_classic(sources)
    assert r.mass_of(a & b) == pytest.approx(1.0)
    assert r.mass_of(a | b) == SPECK == r.conflict
    # under shafer a&b is forbidden too, and every product lands on a|b
    assert dsm_hybrid(Model.shafer(f), sources).mass_of(a | b) == pytest.approx(1.0)


def test_the_loops_build_no_element(monkeypatch):
    """Facts, states, landing keys and sums stay ints inside _fold and
    _walk; elements are built only when the report is finished."""
    built, running = [], []
    init = LatticeElement.__init__

    def counting_init(self, frame, bits):
        if running:
            built.append(bits)
        init(self, frame, bits)

    def watched(loop):
        def run(*args, **kwargs):
            running.append(loop)
            try:
                return loop(*args, **kwargs)
            finally:
                running.pop()
        return run

    monkeypatch.setattr(LatticeElement, "__init__", counting_init)
    monkeypatch.setattr(rules, "_fold", watched(rules._fold))
    monkeypatch.setattr(rules, "_walk", watched(rules._walk))
    model = Model.hybrid(F3, [exclusivity(F3, 1, 2), exclusivity(F3, 2, 3)])
    # live (S1), partly forbidden (S3) and all-forbidden (S2) meets
    sources = [PreciseMass(F3, {TH1: 0.3, TH1 & TH2: 0.2, TH2 | TH3: 0.5}),
               PreciseMass(F3, {TH2: 0.6, TH2 & TH3: 0.1, TH1 | TH3: 0.3})]
    for s3 in (S3_COMPONENTS, S3_UNION):
        dsm_hybrid(model, sources, s3)
    dsmh_improved(model, sources)
    tnorm_fusion("min", sources, model)
    dempster(model, sources)
    tconorm_fusion("max", sources, model)
    assert built == []


# --- the classical alternatives ----------------------------------------------------

def test_dempster_normalizes_surviving_mass():
    m1, m2 = two_reports()
    r = dempster(THIRD_RULED_OUT, [m1, m2])
    assert r.conflict == pytest.approx(0.65)
    assert r.mass_of(TH1) == pytest.approx(0.600000, abs=1e-6)
    assert r.mass_of(TH2) == pytest.approx(0.314286, abs=1e-6)
    assert r.mass_of(TH1 | TH2) == pytest.approx(0.085714, abs=1e-6)


def test_dempster_total_conflict_raises():
    f = Frame(("th1", "th2", "th3", "th4"))
    m1 = PreciseMass(f, {f.atom(1): 0.6, f.atom(3): 0.4})
    m2 = PreciseMass(f, {f.atom(2): 0.2, f.atom(4): 0.8})
    with pytest.raises(TotalConflict):
        dempster(Model.shafer(f), [m1, m2])


def test_dempster_reports_the_exact_total_conflict():
    # 0.2 + 0.8 and 0.3 + 0.7 sum to 1 within half an ulp, so the exact
    # conflict rounds to 1.0; float sums of the products gave 0.9999999999999999
    f = Frame(("th1", "th2", "th3", "th4"))
    m1 = PreciseMass(f, {f.atom(1): 0.2, f.atom(2): 1 - 0.2})
    m2 = PreciseMass(f, {f.atom(3): 0.3, f.atom(4): 1 - 0.3})
    with pytest.raises(TotalConflict, match=r"\(k12=1\.0\)$"):
        dempster(Model.shafer(f), [m1, m2])


def test_dempster_gives_a_lone_survivor_exactly_one():
    # k12 is 0.9999; dividing by 1 - k12 gave th3 1.0000000000001101
    m1 = PreciseMass(F3, {TH1: 1 - 0.1, TH3: 0.1})
    m2 = PreciseMass(F3, {TH2: 1 - 0.001, TH3: 0.001})
    r = dempster(Model.shafer(F3), [m1, m2])
    assert len(r.mass) == 1 and r.mass_of(TH3) == 1.0


def test_fraction_masses_fuse_and_spread_exactly():
    # a denominator of 3 was read as the next power of two, 4: each fused
    # mass came out 0.5, dempster's conflict 0.5 and free gpt 1.5 on a|b
    f = Frame(("a", "b"))
    a, b = f.atom(1), f.atom(2)
    m1 = PreciseMass(f, {a: Fraction(1, 3), b: Fraction(2, 3)})
    m2 = PreciseMass(f, {a: Fraction(1, 2), a | b: Fraction(1, 2)})
    third = float(Fraction(1, 3))
    assert dsm_classic([m1, m2]).mass.items() == [(a & b, third), (a, third), (b, third)]
    assert dempster(Model.shafer(f), [m1, m2]).conflict == third
    assert list(gpt(Model.free(f), m1).values) == [float(x) for x in (
        0, Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), 1)]
    # the skipped mass is printed as a float, Fraction or not
    dead = PreciseMass(f, {a & b: Fraction(1, 4), a: Fraction(3, 4)})
    assert gpt(Model.shafer(f), dead).warnings == (
        "mass 0.25 on forbidden element skipped by the transform",)
    assert repr(m1) == "PreciseMass({a: 0.333333, b: 0.666667})"


def test_smets_keeps_conflict_on_empty():
    m1, m2 = two_reports()
    r = smets(THIRD_RULED_OUT, [m1, m2])
    assert r.mass_of(F3.empty()) == pytest.approx(0.65)
    assert r.mass_of(TH1) == pytest.approx(0.21)
    assert sum(v for _, v in r.mass.items()) == pytest.approx(1.0)


def test_yager_moves_conflict_to_ignorance():
    m1, m2 = two_reports()
    r = yager(THIRD_RULED_OUT, [m1, m2])
    assert r.mass_of(TH1 | TH2) == pytest.approx(0.68)
    assert r.mass_of(TH1) == pytest.approx(0.21)


def test_dubois_prade_goes_subnormal_under_nonexistential_constraint():
    m1, m2 = two_reports()
    r = dubois_prade(THIRD_RULED_OUT, [m1, m2])
    assert r.mass_of(TH1) == pytest.approx(0.34)
    assert r.mass_of(TH2) == pytest.approx(0.25)
    assert r.mass_of(TH1 | TH2) == pytest.approx(0.35)
    assert sum(v for _, v in r.mass.items()) == pytest.approx(0.94)
    assert any("subnormal" in w for w in r.warnings)


def test_dubois_prade_retries_the_union():
    # under a pure exclusivity model the union retry never fails, so the
    # output stays normal
    m1, m2 = two_reports()
    r = dubois_prade(Model.shafer(F3), [m1, m2])
    assert sum(v for _, v in r.mass.items()) == pytest.approx(1.0)
    assert not r.warnings


def test_dubois_prade_takes_exactly_two():
    m1, m2 = two_reports()
    with pytest.raises(ValidationError):
        dubois_prade(THIRD_RULED_OUT, [m1, m2, m1])


def test_disjunctive_lands_on_joins():
    m1, m2 = two_reports()
    r = disjunctive([m1, m2])
    assert r.mass_of(TH1) == pytest.approx(0.05)
    assert r.mass_of(TH2) == pytest.approx(0.04)
    assert r.mass_of(TH3) == pytest.approx(0.06)
    acc = {}
    for (x, vx), (y, vy) in itertools.product(m1.items(), m2.items()):
        el = x | y
        acc[el] = acc.get(el, 0.0) + vx * vy
    for el, v in acc.items():
        assert r.mass_of(el) == pytest.approx(v, abs=1e-12)


# --- degrees and the weighted variants ------------------------------------------------

def test_degrees_on_the_free_model():
    free = Model.free(F3)
    assert degree_of_intersection(free, TH1, TH2) == pytest.approx(1 / 3)
    assert degree_of_union(free, TH1, TH2) == pytest.approx(2 / 3)
    assert degree_of_intersection(free, TH1, TH1) == 1.0
    assert degree_of_union(free, TH1, TH1) == 0.0
    assert degree_of_inclusion(free, TH1 & TH2, TH1) == pytest.approx(0.5)
    assert degree_of_inclusion(free, TH1, TH1) == 1.0
    with pytest.raises(NotASubset):
        degree_of_inclusion(free, TH1, TH2)


def test_an_element_the_shafer_model_empties_is_wholly_included_in_itself():
    both = TH1 & TH2
    assert degree_of_inclusion(Model.shafer(F3), both, both) == 1.0


@pytest.mark.parametrize("degree", [degree_of_intersection, degree_of_union])
def test_degrees_refuse_foreign_and_non_element_arguments(degree):
    free = Model.free(F3)
    g = Frame(("a", "b", "c"))
    foreign = g.atom(1)
    for x, y in ((foreign, TH1), (TH1, foreign), (foreign, foreign)):
        with pytest.raises(FrameMismatch):
            degree(free, x, y)
    for x, y in ((TH1.bits, TH2), (TH1, TH2.bits), ("th1", TH2), (TH1, None)):
        with pytest.raises(TypeError):
            degree(free, x, y)
    # the checks do not change the value
    assert degree(free, TH1 | TH2, TH2) == degree(Model.free(F3), TH2, TH1 | TH2)


def test_degree_sum_is_one():
    rng = random.Random(14)
    from dsmfuse.lattice import enumerate_hyper_power_set

    els = [el for el in enumerate_hyper_power_set(F3) if not el.is_empty]
    free = Model.free(F3)
    for _ in range(50):
        x, y = rng.choice(els), rng.choice(els)
        assert degree_of_intersection(free, x, y) + degree_of_union(free, x, y) \
            == pytest.approx(1.0)


def brute_weighted_conjunctive(model, m1, m2):
    acc = {}
    for (x, vx), (y, vy) in itertools.product(m1.items(), m2.items()):
        meet = model.reduce(x & y)
        if meet.is_empty:
            continue
        w = degree_of_intersection(model, x, y)
        acc[meet] = acc.get(meet, 0.0) + w * vx * vy
    total = sum(acc.values())
    return {el: v / total for el, v in acc.items()}


def test_improved_conjunctive_matches_direct_oracle():
    rng = random.Random(15)
    free = Model.free(F3)
    for _ in range(15):
        m1, m2 = random_mass(F3, rng), random_mass(F3, rng)
        r = dsmc_improved([m1, m2])
        expect = brute_weighted_conjunctive(free, m1, m2)
        got = dict(r.mass.items())
        assert set(got) == set(expect)
        for el, v in got.items():
            assert v == pytest.approx(expect[el], abs=1e-9)
        assert sum(got.values()) == pytest.approx(1.0)


def test_improved_disjunctive_matches_direct_oracle():
    rng = random.Random(16)
    free = Model.free(F3)
    for _ in range(15):
        m1, m2 = random_mass(F3, rng), random_mass(F3, rng)
        r = disjunctive_improved([m1, m2])
        acc = {}
        for (x, vx), (y, vy) in itertools.product(m1.items(), m2.items()):
            w = degree_of_union(free, x, y)
            if w == 0.0:
                w = 0.0
            el = x | y
            acc[el] = acc.get(el, 0.0) + w * vx * vy
        total = sum(acc.values())
        for el, v in r.mass.items():
            assert v == pytest.approx(acc[el] / total, abs=1e-9)


def test_improved_hybrid_stays_normalized():
    rng = random.Random(17)
    for _ in range(10):
        m1, m2 = random_mass(F3, rng), random_mass(F3, rng)
        r = dsmh_improved(THIRD_RULED_OUT, [m1, m2])
        assert sum(v for _, v in r.mass.items()) == pytest.approx(1.0)
        assert all(not el.is_empty for el, _ in r.mass.items())


# --- shaped products -------------------------------------------------------------------

def test_algebraic_product_rule_equals_classic_exactly():
    rng = random.Random(18)
    for _ in range(15):
        m1, m2 = random_mass(F3, rng), random_mass(F3, rng)
        a = tnorm_fusion("algebraic", [m1, m2])
        b = dsm_classic([m1, m2])
        assert dict(a.mass.items()) == dict(b.mass.items())


def test_min_product_rule_needs_and_gets_normalization():
    m1, m2 = two_reports()
    r = tnorm_fusion("min", [m1, m2], model=THIRD_RULED_OUT)
    assert sum(v for _, v in r.mass.items()) == pytest.approx(1.0)
    acc = {}
    dead = 0.0
    for (x, vx), (y, vy) in itertools.product(m1.items(), m2.items()):
        w = min(vx, vy)
        meet = THIRD_RULED_OUT.reduce(x & y)
        if meet.is_empty:
            dead += w
            from dsmfuse.lattice import component_union

            target = THIRD_RULED_OUT.reduce(component_union(x & y))
            if target.is_empty:
                target = THIRD_RULED_OUT.reduce(F3.total_ignorance())
            acc[target] = acc.get(target, 0.0) + w
        else:
            acc[meet] = acc.get(meet, 0.0) + w
    total = sum(acc.values())
    for el, v in r.mass.items():
        assert v == pytest.approx(acc[el] / total, abs=1e-9)


def test_max_union_rule_matches_direct_oracle():
    m1, m2 = two_reports()
    r = tconorm_fusion("max", [m1, m2])
    acc = {}
    for (x, vx), (y, vy) in itertools.product(m1.items(), m2.items()):
        el = x | y
        acc[el] = acc.get(el, 0.0) + max(vx, vy)
    total = sum(acc.values())
    for el, v in r.mass.items():
        assert v == pytest.approx(acc[el] / total, abs=1e-9)
    assert sum(v for _, v in r.mass.items()) == pytest.approx(1.0)


T = NeutrosophicTriple.of(0.5, 0.2, 0.3)
TRIPLES = [TripleMass(F3, {TH1: T}), TripleMass(F3, {TH2: T})]


@pytest.mark.parametrize("fuse, args, kind", [
    (tnorm_fusion, (list(two_reports()),), "T-norm"),
    (tconorm_fusion, (list(two_reports()),), "T-conorm"),
    (nnorm, (T, T), "N-norm"),
    (nconorm, (T, T), "N-conorm"),
    (nnorm_fusion, (TRIPLES,), "N-norm"),
    (nconorm_fusion, (TRIPLES,), "N-conorm"),
], ids=["tnorm_fusion", "tconorm_fusion", "nnorm", "nconorm", "nnorm_fusion", "nconorm_fusion"])
def test_unknown_shape_rejected(fuse, args, kind):
    with pytest.raises(ValidationError) as err:
        fuse("harmonic", *args)
    assert err.value.problems == [f"unknown {kind} 'harmonic'"]


# --- set-valued sources -----------------------------------------------------------------

def table_one():
    f = Frame(("th1", "th2"))
    m1 = ImpreciseMass(f, {f.atom(1): parse_set("[0.1,0.2]u{0.3}"),
                           f.atom(2): parse_set("(0.4,0.6)u[0.7,0.8]")})
    m2 = ImpreciseMass(f, {f.atom(1): parse_set("[0.4,0.5]"),
                           f.atom(2): parse_set("[0,0.4]u{0.5,0.6}")})
    return f, m1, m2


def test_imprecise_classic_reproduces_the_set_table():
    f, m1, m2 = table_one()
    r = dsm_classic_imprecise([m1, m2])
    a, b = f.atom(1), f.atom(2)
    assert r.mass_of(a).approx_equal(parse_set("[0.04,0.10]u[0.12,0.15]"))
    assert r.mass_of(b).approx_equal(parse_set("[0,0.40]u[0.42,0.48]"))
    assert r.mass_of(a & b).approx_equal(parse_set("(0.16,0.58]"))


def test_imprecise_hybrid_moves_the_intersection_to_the_union():
    f, m1, m2 = table_one()
    model = Model.hybrid(f, [f.atom(1) & f.atom(2)])
    r = dsm_hybrid_imprecise(model, [m1, m2])
    a, b = f.atom(1), f.atom(2)
    assert r.mass_of(a).approx_equal(parse_set("[0.04,0.10]u[0.12,0.15]"))
    assert r.mass_of(b).approx_equal(parse_set("[0,0.40]u[0.42,0.48]"))
    assert r.mass_of(a | b).approx_equal(parse_set("(0.16,0.58]"))
    assert r.conflict.approx_equal(parse_set("(0.16,0.58]"))


def test_point_sets_degenerate_to_the_precise_rules():
    rng = random.Random(19)
    hybrid = Model.hybrid(F3, [exclusivity(F3, 1, 2)])
    for k, model, s3 in itertools.product((2, 3), (THIRD_RULED_OUT, hybrid),
                                          (S3_COMPONENTS, S3_UNION)):
        for _ in range(10):
            sources = [random_mass(F3, rng) for _ in range(k)]
            lifted = [lift(m) for m in sources]
            precise = dsm_classic(sources)
            got = dsm_classic_imprecise(lifted)
            assert {el: v.as_point() for el, v in got.mass.items()} == dict(precise.mass.items())
            assert got.conflict.as_point() == precise.conflict
            precise = dsm_hybrid(model, sources, s3_target=s3)
            got = dsm_hybrid_imprecise(model, lifted, s3_target=s3)
            assert {el: v.as_point() for el, v in got.mass.items()} == dict(precise.mass.items())
            assert got.conflict.as_point() == precise.conflict


def test_non_admissible_source_warns_but_fuses():
    f = Frame(("th1", "th2"))
    low = ImpreciseMass(f, {f.atom(1): parse_set("[0.1,0.2]"),
                            f.atom(2): parse_set("[0.3,0.4]")})
    ok = ImpreciseMass(f, {f.atom(1): parse_set("{0.5}"),
                           f.atom(2): parse_set("{0.5}")})
    r = dsm_classic_imprecise([low, ok])
    assert any("not admissible" in w for w in r.warnings)
    assert len(r.mass.items()) > 0


def test_normalizing_rules_refuse_when_every_weighted_product_vanishes():
    f = Frame(("a", "b"))
    a, b = f.atom(1), f.atom(2)
    even = PreciseMass(f, {a: 0.5, b: 0.5})
    with pytest.raises(DegenerateNormalization, match=r"tnorm\[bounded\]: every weighted"):
        tnorm_fusion("bounded", [even, even])
    sure_a, sure_b = PreciseMass(f, {a: 1.0}), PreciseMass(f, {b: 1.0})
    with pytest.raises(DegenerateNormalization, match="dsmc_improved: every weighted"):
        dsmc_improved([sure_a, sure_b], model=Model.shafer(f))


# --- order-free exact sums ----------------------------------------------------------------

@st.composite
def fold_cases(draw):
    """(model, sources, the same sources shuffled): 2-4 precise sources on a
    free, shafer or hybrid model of 2-3 hypotheses; the shuffle permutes the
    sources and rebuilds each from its focal items in a drawn order."""
    els = enumerate_hyper_power_set(Frame(("h1", "h2", "h3")[:draw(st.integers(2, 3))]))[1:]
    frame = els[0].frame
    kind = draw(st.sampled_from(["free", "shafer", "hybrid"]))
    dead = draw(st.lists(st.sampled_from(els), min_size=int(kind == "hybrid"), max_size=2))
    model = Model.free(frame) if kind == "free" else Model(frame, kind, dead)
    sources = []
    for _ in range(draw(st.integers(2, 4))):
        focal = draw(st.lists(st.sampled_from(els), min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 100), min_size=len(focal), max_size=len(focal)))
        sources.append(PreciseMass(frame, {e: w / sum(weights) for e, w in zip(focal, weights)}))
    shuffled = [PreciseMass(frame, dict(draw(st.permutations(m.items()))))
                for m in draw(st.permutations(sources))]
    return model, sources, shuffled


def fold_rule_calls(model, sources):
    """Every rule on the exact fold."""
    yield lambda: dsm_classic(sources)
    yield lambda: dsm_classic([lift(m) for m in sources])
    for s3 in (S3_COMPONENTS, S3_UNION):
        yield lambda: dsm_hybrid(model, sources, s3)
        yield lambda: dsm_hybrid(model, [lift(m) for m in sources], s3)
    for rule in (dempster, smets, yager):
        yield lambda: rule(model, sources)
    yield lambda: disjunctive(sources, model)
    if len(sources) == 2:
        yield lambda: dubois_prade(model, sources)
        yield lambda: dsmc_improved(sources, model)
        yield lambda: disjunctive_improved(sources, model)
        for s3 in (S3_COMPONENTS, S3_UNION):
            yield lambda: dsmh_improved(model, sources, s3)
            yield lambda: tnorm_fusion("algebraic", sources, model, s3)
            triples = [TripleMass(m.frame, {el: NeutrosophicTriple.of(v, v * v, 1 - v)
                                            for el, v in m.items()}) for m in sources]
            yield lambda: nnorm_fusion("algebraic", triples, model, s3)
            yield lambda: nnorm_fusion("algebraic", triples, model, s3, normalize=False)


def fold_outcome(call):
    try:
        r = call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return r.rule, r.mass.items(), r.conflict, r.warnings


class Reordered:
    """A source whose focal items come in the given order."""

    def __init__(self, m, order):
        self.frame = m.frame
        self._items = [m.items()[i] for i in order]

    def items(self):
        return self._items


@settings(max_examples=80, deadline=None)
@given(fold_cases(), st.randoms(use_true_random=False))
def test_fold_results_do_not_depend_on_source_or_focal_order(case, rng):
    model, sources, shuffled = case
    # the mass functions keep their focal items sorted, so the fold itself
    # also gets them in a random order
    plan = _transfer_plan(model, S3_COMPONENTS)
    reordered = [Reordered(m, rng.sample(range(len(m)), len(m))) for m in sources]
    assert _fold(reordered[::-1], plan) == _fold(sources, plan)
    want = [fold_outcome(call) for call in fold_rule_calls(model, sources)]
    assert [fold_outcome(call) for call in fold_rule_calls(model, shuffled)] == want


def components_folded_apart(sources, plan):
    """Triple sources folded one component at a time, each fold keeping
    only its nonzero values, and the three merged over the lcm of their
    denominators: (sums, conflict, dropped mass) as exact Fractions per
    component, all-zero sums left out."""
    folds = [_fold([_MassBase(m.frame, {el: v[k] for el, v in m.items()}) for m in sources],
                   plan) for k in range(3)]
    den = lcm(*(d for *_, d in folds))
    sums = {}
    for k, (acc, _, _, d) in enumerate(folds):
        for key, n in acc.items():
            sums.setdefault(key, [0, 0, 0])[k] = n * (den // d)
    merged = {key: tuple(Fraction(n, den) for n in v) for key, v in sums.items() if any(v)}
    return (merged, tuple(Fraction(c, d) for _, c, _, d in folds),
            tuple(Fraction(x, d) for _, _, x, d in folds))


def components_walked_together(sources, plan):
    """The walk over exact ints, as triple fusion walks the algebraic
    N-norm: each triple as three ints over the lcm D of every component's
    denominator, the sums over D * D. In the form of
    components_folded_apart."""
    d = lcm(*[c.as_integer_ratio()[1] for m in sources for _, v in m.items() for c in v])
    acc, conflict, lost, _ = rules._walk(
        sources, plan, lambda a, b: tuple(map(mul, a, b)), lambda a, b: tuple(map(add, a, b)),
        (0, 0, 0), lambda v: tuple(n * (d // q) for n, q in map(float.as_integer_ratio, v)))

    def exact(v):
        return tuple(Fraction(n, d * d) for n in v)

    return ({key: exact(v) for key, v in acc.items() if any(v)}, exact(conflict), exact(lost))


TRIPLE_COMPONENT = st.one_of(st.sampled_from([0.0, 1e-320, 5e-324, 0.1, 0.25, 1.0]),
                             st.floats(0, 1))


@st.composite
def triple_folds(draw):
    """(plan, two point-triple sources) on a free, shafer or hybrid model of
    2-3 hypotheses, the plan one that triple fusion walks; triples may be
    all zero or have subnormal components."""
    model, sources, _ = draw(fold_cases())
    sources = [_MassBase(m.frame, {el: draw(st.one_of(
        st.just((0.0, 0.0, 0.0)), st.tuples(*[TRIPLE_COMPONENT] * 3)))
        for el, _ in m.items()}) for m in sources[:2]]
    plan = draw(st.sampled_from([
        _transfer_plan(model, S3_COMPONENTS), _transfer_plan(model, S3_UNION), _join_plan(model)]))
    return plan, sources


@settings(max_examples=150, deadline=None)
@given(triple_folds())
def test_one_triple_fold_equals_three_component_folds(case):
    plan, sources = case
    assert components_walked_together(sources, plan) == components_folded_apart(sources, plan)


@settings(max_examples=100, deadline=None)
@given(fold_cases())
def test_meet_rules_report_the_same_exact_conflict(case):
    model, sources, _ = case
    assume(not model.is_degenerate())
    open_world = smets(model, sources)
    if open_world.conflict > 0:
        assert open_world.mass_of(model.frame.empty()) == open_world.conflict
    assert yager(model, sources).conflict == open_world.conflict
    try:
        closed = dempster(model, sources)
    except TotalConflict:
        return
    assert closed.conflict == open_world.conflict


# --- argument checking -------------------------------------------------------------------

def test_source_count_and_frame_checks():
    m1, m2 = two_reports()
    with pytest.raises(FewerThanTwoSources):
        dsm_classic([m1])
    other = PreciseMass(Frame(("a", "b")), {Frame(("a", "b")).atom(1): 1.0})
    with pytest.raises(FrameMismatch):
        dsm_classic([m1, other])
    with pytest.raises(FrameMismatch, match="model frame differs from the sources' frame"):
        dsm_hybrid(Model.free(Frame(("a", "b"))), [m1, m2])
    with pytest.raises(ValidationError):
        dsm_classic([m1, PreciseMass(F3, {TH1: 0.5})])
    with pytest.raises(TypeError):
        dsm_classic([m1, lift(m2)])


def test_every_rule_refuses_a_model_that_empties_the_frame():
    f = Frame(("a", "b"))
    a, b = f.atom(1), f.atom(2)
    model = Model.hybrid(f, [a, b])
    m = PreciseMass(f, {a: 0.6, a | b: 0.4})
    t = TripleMass(f, {a: NeutrosophicTriple.of(0.6, 0.1, 0.3)})
    calls = [
        lambda: dsm_hybrid(model, [m, m]),
        lambda: dsm_hybrid_imprecise(model, [lift(m), lift(m)]),
        lambda: dempster(model, [m, m]),
        lambda: smets(model, [m, m]),
        lambda: yager(model, [m, m]),
        lambda: dubois_prade(model, [m, m]),
        lambda: disjunctive([m, m], model=model),
        lambda: dsmc_improved([m, m], model=model),
        lambda: dsmh_improved(model, [m, m]),
        lambda: disjunctive_improved([m, m], model=model),
        lambda: tnorm_fusion("min", [m, m], model=model),
        lambda: tconorm_fusion("max", [m, m], model=model),
        lambda: nnorm_fusion("algebraic", [t, t], model=model),
        lambda: nconorm_fusion("algebraic", [t, t], model=model),
    ]
    for call in calls:
        with pytest.raises(DegenerateModel, match="empties the whole frame"):
            call()


@pytest.mark.parametrize("target", ["bogus", None])
def test_every_s3_reader_refuses_an_unknown_target(target):
    # a three-hypothesis hybrid frame, where the two targets land apart
    model = Model.hybrid(F3, [TH1 & TH2])
    m1, m2 = two_reports()
    calls = [
        lambda: dsm_hybrid(model, [m1, m2], target),
        lambda: dsm_hybrid_imprecise(model, [lift(m1), lift(m2)], target),
        lambda: dsmh_improved(model, [m1, m2], target),
        lambda: tnorm_fusion("algebraic", [m1, m2], model, target),
        lambda: nnorm_fusion("algebraic", TRIPLES, model, target),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.problems == [f"unknown s3 target {target!r}"]


def test_imprecise_spellings_refuse_precise_sources():
    m1, m2 = two_reports()
    with pytest.raises(TypeError, match="dsm_classic_imprecise expects ImpreciseMass"):
        dsm_classic_imprecise([m1, m2])
    with pytest.raises(TypeError, match="dsm_hybrid_imprecise expects ImpreciseMass"):
        dsm_hybrid_imprecise(Model.free(F3), [m1, m2])
    assert dsm_classic_imprecise([lift(m1), lift(m2)]).rule == "dsm_classic_imprecise"
    assert dsm_classic([m1, m2]).rule == "dsm_classic"


# --- the value types ------------------------------------------------------------------

def test_value_types_survive_copy_deepcopy_and_pickle():
    m1, m2 = two_reports()
    sets = {TH1: parse_set("[0.2,0.4]u{0.6}"), TH2: SubunitarySet.point(0.5)}
    values = [
        TH1 | (TH2 & TH3), Model.shafer(F3, [TH3]), sets[TH1], m1, ImpreciseMass(F3, sets),
        TripleMass(F3, {TH1: NeutrosophicTriple.of(1.0, 0.0, 0.0)}),
        dsm_hybrid(Model.shafer(F3, [TH3]), [m1, m2]),
    ]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value)),
                     pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)
