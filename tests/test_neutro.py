import itertools
from fractions import Fraction
from functools import lru_cache
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse import neutro
from dsmfuse.errors import FewerThanTwoSources, ValidationError, ZeroSum
from dsmfuse.lattice import Frame, LatticeElement, Model, enumerate_hyper_power_set, exclusivity
from dsmfuse.mass import PreciseMass, SubunitarySet, parse_set
from dsmfuse.neutro import (
    NeutrosophicTriple,
    TripleMass,
    nconorm,
    nconorm_fusion,
    nl_conjunction,
    nl_disjunction,
    nl_negation,
    nnorm,
    nnorm_fusion,
    normalize_triple,
    ns_complement,
    ns_difference,
    ns_intersection,
    ns_union,
)
from dsmfuse.rules import (
    S3_COMPONENTS,
    S3_UNION,
    TCONORMS,
    TNORMS,
    FusionReport,
    _prepare,
    _walk,
    dsm_classic,
)

F3 = Frame(("th1", "th2", "th3"))
TH1, TH2, TH3 = F3.atom(1), F3.atom(2), F3.atom(3)

GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def points(t):
    return tuple(round(x, 9) for x in t.as_points())


# --- triples --------------------------------------------------------------------

def test_triple_coercion_and_points():
    t = NeutrosophicTriple.of(0.6, 0.1, 0.3)
    assert t.is_point
    assert t.as_points() == (0.6, 0.1, 0.3)
    s = NeutrosophicTriple.of(parse_set("[0.2,0.4]"), 0.1, 0.0)
    assert not s.is_point


def test_component_sum_not_forced_to_one():
    t = NeutrosophicTriple.of(0.9, 0.8, 0.7)
    assert t.component_sum() == pytest.approx(2.4)


def test_normalize_triple():
    t = normalize_triple(NeutrosophicTriple.of(0.5, 0.25, 0.25))
    assert points(t) == (0.5, 0.25, 0.25)
    t = normalize_triple(NeutrosophicTriple.of(1.0, 0.5, 0.5))
    assert points(t) == (0.5, 0.25, 0.25)
    with pytest.raises(ZeroSum):
        normalize_triple(NeutrosophicTriple.of(0.0, 0.0, 0.0))


# --- connectors ------------------------------------------------------------------

def test_negation_flips_componentwise():
    t = NeutrosophicTriple.of(0.6, 0.1, 0.3)
    assert points(nl_negation(t)) == (0.4, 0.9, 0.7)
    assert points(ns_complement(t)) == (0.4, 0.9, 0.7)
    with pytest.raises(ValidationError, match=r"negation needs components inside \[0,1\], got \{1.5\}"):
        nl_negation(NeutrosophicTriple.of(1.5, 0.0, 0.0))


def test_conjunction_is_componentwise_product():
    a = NeutrosophicTriple.of(0.6, 0.1, 0.3)
    b = NeutrosophicTriple.of(0.5, 0.3, 0.2)
    assert points(nl_conjunction(a, b)) == (0.3, 0.03, 0.06)
    assert points(ns_intersection(a, b)) == (0.3, 0.03, 0.06)


def test_disjunction_is_probabilistic_sum():
    a = NeutrosophicTriple.of(0.6, 0.1, 0.3)
    b = NeutrosophicTriple.of(0.5, 0.3, 0.2)
    expect = (0.6 + 0.5 - 0.3, 0.1 + 0.3 - 0.03, 0.3 + 0.2 - 0.06)
    assert points(nl_disjunction(a, b)) == tuple(round(x, 9) for x in expect)
    assert points(ns_union(a, b)) == points(nl_disjunction(a, b))


def test_difference_subtracts_the_overlap():
    a = NeutrosophicTriple.of(0.6, 0.1, 0.3)
    b = NeutrosophicTriple.of(0.5, 0.3, 0.2)
    assert points(ns_difference(a, b)) == (0.3, 0.07, 0.24)


def test_connectors_clamp_to_the_unit_interval():
    a = NeutrosophicTriple.of(parse_set("[0.8,1.0]"), 0.0, 1.0)
    b = NeutrosophicTriple.of(parse_set("[0.9,1.0]"), 0.0, 1.0)
    c = nl_disjunction(a, b)
    assert c.truth.sup <= 1.0
    assert c.falsehood.sup <= 1.0


def test_set_valued_connector_arithmetic():
    a = NeutrosophicTriple.of(parse_set("[0.2,0.4]"), 0.1, 0.0)
    b = NeutrosophicTriple.of(parse_set("[0.5,0.5]"), 0.2, 0.0)
    c = nl_conjunction(a, b)
    assert c.truth.approx_equal(parse_set("[0.1,0.2]"))


# --- shaped kernels -----------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(TNORMS))
def test_nnorm_axioms_on_the_grid(kind):
    f = TNORMS[kind]
    for x, y in itertools.product(GRID, GRID):
        assert f(x, y) == pytest.approx(f(y, x))
        assert 0.0 <= f(x, y) <= 1.0
        assert f(x, 1.0) == pytest.approx(x)
    for x, y, z in itertools.product(GRID, GRID, GRID):
        assert f(f(x, y), z) == pytest.approx(f(x, f(y, z)))
        if y <= z:
            assert f(x, y) <= f(x, z) + 1e-12


@pytest.mark.parametrize("kind", sorted(TCONORMS))
def test_nconorm_axioms_on_the_grid(kind):
    g = TCONORMS[kind]
    for x, y in itertools.product(GRID, GRID):
        assert g(x, y) == pytest.approx(g(y, x))
        assert 0.0 <= g(x, y) <= 1.0
        assert g(x, 0.0) == pytest.approx(x)
    for x, y, z in itertools.product(GRID, GRID, GRID):
        assert g(g(x, y), z) == pytest.approx(g(x, g(y, z)))
        if y <= z:
            assert g(x, y) <= g(x, z) + 1e-12


def test_triple_kernels_apply_componentwise():
    a = NeutrosophicTriple.of(0.6, 0.1, 0.3)
    b = NeutrosophicTriple.of(0.5, 0.3, 0.2)
    assert points(nnorm("algebraic", a, b)) == (0.3, 0.03, 0.06)
    assert points(nnorm("min", a, b)) == (0.5, 0.1, 0.2)
    assert points(nconorm("max", a, b)) == (0.6, 0.3, 0.3)
    assert points(nconorm("bounded", a, b)) == (1.0, 0.4, 0.5)


# --- fusion ---------------------------------------------------------------------------

def sample_sources():
    m1 = TripleMass(F3, {TH1: NeutrosophicTriple.of(0.6, 0.1, 0.3),
                         TH2: NeutrosophicTriple.of(0.8, 0.0, 0.2)})
    m2 = TripleMass(F3, {TH1: NeutrosophicTriple.of(0.5, 0.3, 0.2),
                         TH2: NeutrosophicTriple.of(0.7, 0.2, 0.1)})
    return m1, m2


def test_conjunctive_triple_fusion_normalized_values():
    m1, m2 = sample_sources()
    r = nnorm_fusion("algebraic", [m1, m2])
    got = {el.expr(style="ascii"): points(v) for el, v in r.mass.items()}
    assert got["th1"] == pytest.approx((0.769231, 0.076923, 0.153846), abs=1e-6)
    assert got["th2"] == pytest.approx((0.965517, 0.0, 0.034483), abs=1e-6)
    assert got["th1&th2"] == pytest.approx((0.901099, 0.021978, 0.076923), abs=1e-6)


def test_disjunctive_triple_fusion_normalized_values():
    m1, m2 = sample_sources()
    r = nconorm_fusion("algebraic", [m1, m2])
    got = {el.expr(style="ascii"): points(v) for el, v in r.mass.items()}
    assert got["th1"] == pytest.approx((0.496894, 0.229814, 0.273292), abs=1e-6)
    assert got["th2"] == pytest.approx((0.661972, 0.140845, 0.197183), abs=1e-6)
    assert got["th1|th2"] == pytest.approx((0.576052, 0.187702, 0.236246), abs=1e-6)


def test_exclusive_model_moves_the_product_to_the_union():
    m1, m2 = sample_sources()
    model = Model.hybrid(F3, [exclusivity(F3, 1, 2)])
    r = nnorm_fusion("algebraic", [m1, m2], model=model)
    got = {el.expr(style="ascii"): points(v) for el, v in r.mass.items()}
    assert got["th1|th2"] == pytest.approx((0.901099, 0.021978, 0.076923), abs=1e-6)
    assert r.conflict == pytest.approx(0.82)


def test_raw_fusion_bridges_to_the_precise_conjunctive_rule():
    # with truth components forming a proper mass, the unnormalized truth
    # channel of the algebraic fusion is exactly the conjunctive consensus
    t1 = PreciseMass(F3, {TH1: 0.3, TH2: 0.7})
    t2 = PreciseMass(F3, {TH1: 0.6, TH2: 0.4})
    m1 = TripleMass(F3, {TH1: NeutrosophicTriple.of(0.3, 0.2, 0.1),
                         TH2: NeutrosophicTriple.of(0.7, 0.0, 0.3)})
    m2 = TripleMass(F3, {TH1: NeutrosophicTriple.of(0.6, 0.5, 0.2),
                         TH2: NeutrosophicTriple.of(0.4, 0.1, 0.0)})
    raw = nnorm_fusion("algebraic", [m1, m2], normalize=False)
    classic = dsm_classic([t1, t2])
    for el, v in raw.mass.items():
        assert v.truth.as_point() == classic.mass.mass(el)


def test_triple_mass_validation():
    bad_component = TripleMass(F3, {TH1: NeutrosophicTriple.of(1.2, 0.0, 0.0)})
    assert bad_component.validate()
    on_empty = TripleMass(F3, {F3.empty(): NeutrosophicTriple.of(0.5, 0.2, 0.3)})
    assert on_empty.validate()
    set_valued = TripleMass(
        F3, {TH1: NeutrosophicTriple.of(parse_set("[0.1,0.2]"), 0.0, 0.0)}
    )
    assert set_valued.validate()
    with pytest.raises(ValidationError):
        bad_component.check()
    assert TripleMass(F3, {TH1: 0.5}).validate() == ["value on th1 is not a triple"]


def test_triple_mass_repr_and_its_zero():
    m = TripleMass(F3, {TH1: NeutrosophicTriple.of(1.0, 0.0, 0.0)})
    assert repr(m) == "TripleMass({th1: ({1.0}, {0.0}, {0.0})})"
    assert m.mass(TH2) == NeutrosophicTriple.of(0.0, 0.0, 0.0)


@pytest.mark.parametrize("truth", ["[0.1,0.2]", "{0.1,0.2}", "nan"],
                         ids=["interval", "two_points", "nan"])
def test_triple_validation_names_each_non_point_once(truth):
    """A component that is not one point piece (NaN is none) gets one
    message, and no range check reads its triple."""
    value = SubunitarySet.point(float(truth)) if truth == "nan" else parse_set(truth)
    trip = NeutrosophicTriple.of(value, 0.0, 0.0)
    assert not trip.is_point
    m = TripleMass(F3, {TH1: trip, TH2: NeutrosophicTriple.of(1.5, 0.0, 0.5)})
    assert m.validate() == [f"fusion needs point components on {TH1.expr()}",
                            f"T component 1.5 on {TH2.expr()} outside [0,1]"]


def test_fusion_rejects_mismatched_sources():
    m1, _ = sample_sources()
    other = TripleMass(Frame(("a", "b")),
                       {Frame(("a", "b")).atom(1): NeutrosophicTriple.of(1, 0, 0)})
    with pytest.raises(Exception):
        nnorm_fusion("algebraic", [m1, other])
    with pytest.raises(ValidationError):
        nnorm_fusion("algebraic", [m1, sample_sources()[0], sample_sources()[1]])


@pytest.mark.parametrize("fuse", [nnorm_fusion, nconorm_fusion])
def test_triple_fusion_counts_sources_like_every_rule(fuse):
    m1, m2 = sample_sources()
    with pytest.raises(FewerThanTwoSources, match=f"{fuse.__name__} needs at least two sources"):
        fuse("algebraic", [m1])
    with pytest.raises(ValidationError, match=f"{fuse.__name__} combines exactly 2 sources, got 3"):
        fuse("algebraic", [m1, m2, m1])


# --- triple fusion oracle --------------------------------------------------------------
# The fusion as it was before the walk read float triples, and its kernel
# helper: the kernel meets the source NeutrosophicTriples through their
# points, and the outputs come from NeutrosophicTriple.of. The algebraic
# N-norm's products and sums are exact Fractions, rounded once, as the
# package promises; the other kernels keep their float walk. The package must
# give the same masses and conflict, floats compared by their hex form.

def _apply_kernel(kernel, a, b):
    at, ai, af = a.as_points()
    bt, bi, bf = b.as_points()
    return (kernel(at, bt), kernel(ai, bi), kernel(af, bf))


class Componentwise(tuple):
    """(t, i, f) numbers summed component by component."""

    def __add__(self, other):
        return Componentwise(map(add, self, other))


def ref_fuse_triples(rule, name, kernel, sources, model, plan, normalize):
    """Walk the focal pairs with the kernel applied componentwise, drop
    all-zero sums and normalize the rest unless told not to. The reported
    conflict is the truth component of the mass counted as conflict."""
    model, _ = _prepare(sources, rule, model, TripleMass, exactly=2)
    zero = Componentwise((0.0,) * 3)
    if name == "nnorm[algebraic]":
        zero = Componentwise((Fraction(0),) * 3)

        def kernel(x, y):
            return Fraction(x) * Fraction(y)
    # Exactly two sources, so the kernel always meets two source triples.
    acc, conflict, _, _ = _walk(
        sources, plan(model), lambda a, b: Componentwise(_apply_kernel(kernel, a, b)), zero=zero
    )
    out = {}
    for k, (t, i, f) in acc.items():
        s = t + i + f
        if s == 0.0:
            continue
        if normalize:
            t, i, f = t / s, i / s, f / s
        out[LatticeElement(model.frame, k)] = NeutrosophicTriple.of(t, i, f)
    return FusionReport(name, model, TripleMass(model.frame, out), float(conflict[0]))


@lru_cache(maxsize=None)
def nonempty_elements(n):
    return tuple(enumerate_hyper_power_set(Frame(tuple(f"h{i}" for i in range(1, n + 1))))[1:])


COMPONENT = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), st.floats(0, 1))
FOCAL_TRIPLE = st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(COMPONENT, COMPONENT, COMPONENT))


@st.composite
def triple_fusions(draw):
    """(model, two triple sources) on a free, shafer or hybrid model of 2-4
    hypotheses; a focal triple may be all zero."""
    els = nonempty_elements(draw(st.integers(2, 4)))
    frame = els[0].frame
    kind = draw(st.sampled_from(["free", "shafer", "hybrid"]))
    if kind == "free":
        model = Model.free(frame)
    else:
        dead = draw(st.lists(st.sampled_from(els), min_size=int(kind == "hybrid"), max_size=2))
        model = Model(frame, kind, dead)
    sources = []
    for _ in range(2):
        focal = draw(st.lists(st.sampled_from(els), min_size=1, max_size=5, unique=True))
        sources.append(TripleMass(frame, {
            e: NeutrosophicTriple.of(*draw(FOCAL_TRIPLE)) for e in focal}))
    return model, sources


def triple_fusion_calls(model, sources):
    for normalize in (True, False):
        for kind in TNORMS:
            for s3 in (S3_COMPONENTS, S3_UNION):
                yield lambda: nnorm_fusion(kind, sources, model, s3, normalize)
        for kind in TCONORMS:
            yield lambda: nconorm_fusion(kind, sources, model, normalize)


def hex_outcome(call):
    try:
        r = call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    masses = [(el.bits, [[(p.lower.hex(), p.upper.hex(), p.lower_closed, p.upper_closed)
                          for p in comp.pieces] for comp in trip.components()])
              for el, trip in r.mass.items()]
    return r.rule, r.model, masses, r.conflict.hex()


@settings(max_examples=150, deadline=None)
@given(triple_fusions())
def test_triple_fusion_matches_the_point_triple_reference(case):
    model, sources = case
    got = [hex_outcome(call) for call in triple_fusion_calls(model, sources)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neutro, "_fuse_triples", ref_fuse_triples)
        want = [hex_outcome(call) for call in triple_fusion_calls(model, sources)]
    assert got == want
