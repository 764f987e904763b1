import itertools
import random

import pytest

from dsmfuse.errors import (
    FewerThanTwoSources,
    FrameMismatch,
    NotASubset,
    TotalConflict,
    ValidationError,
)
from dsmfuse.lattice import Frame, Model, exclusivity
from dsmfuse.mass import ImpreciseMass, PreciseMass, SubunitarySet, lift, parse_set
from dsmfuse.rules import (
    S3_COMPONENTS,
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


def test_vacuous_source_is_neutral_for_hybrid():
    rng = random.Random(13)
    model = Model.hybrid(F3, [exclusivity(F3, 1, 3)])
    alive = [el for el in model.alive_elements() if not el.is_empty]
    for _ in range(20):
        m = random_mass(F3, rng, pool=alive)
        r = dsm_hybrid(model, [m, PreciseMass.vacuous(F3)])
        for el, v in m.items():
            assert r.mass_of(el) == pytest.approx(v, abs=1e-9)


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


def test_unknown_shape_rejected():
    m1, m2 = two_reports()
    with pytest.raises(ValidationError):
        tnorm_fusion("harmonic", [m1, m2])


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


# --- argument checking -------------------------------------------------------------------

def test_source_count_and_frame_checks():
    m1, m2 = two_reports()
    with pytest.raises(FewerThanTwoSources):
        dsm_classic([m1])
    other = PreciseMass(Frame(("a", "b")), {Frame(("a", "b")).atom(1): 1.0})
    with pytest.raises(FrameMismatch):
        dsm_classic([m1, other])
    with pytest.raises(ValidationError):
        dsm_classic([m1, PreciseMass(F3, {TH1: 0.5})])
    with pytest.raises(TypeError):
        dsm_classic([m1, lift(m2)])
