import math
import operator
from dataclasses import dataclass

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dsmfuse.errors import (
    EmptyOperand,
    FrameMismatch,
    ParseError,
    SelectionOutsideSet,
    ValidationError,
    ZeroTotalMass,
)
from dsmfuse.lattice import Frame
from dsmfuse.mass import (
    ImpreciseMass,
    Piece,
    PreciseMass,
    SubunitarySet,
    admissibility_witness,
    format_set,
    is_admissible,
    lift,
    parse_set,
    sum_sets,
    to_precise,
)
from dsmfuse.mass import _merge, _piece_add, _piece_mul, _set_product, _set_sum

F2 = Frame(("th1", "th2"))


def interval(lo, hi, lc=True, uc=True):
    return SubunitarySet.interval(lo, hi, lc, uc)


# --- pieces and sets -----------------------------------------------------------

def test_piece_membership_respects_openness():
    p = Piece(0.2, 0.5, lower_closed=False, upper_closed=True)
    assert not p.contains(0.2)
    assert p.contains(0.5)
    assert p.contains(0.35)
    assert not p.contains(0.6)


def test_degenerate_piece_is_a_closed_point():
    p = Piece(0.4, 0.4, lower_closed=False, upper_closed=False)
    assert p.is_point and p.lower_closed and p.upper_closed


def test_merge_coalesces_touching_pieces():
    s = SubunitarySet([Piece(0.1, 0.3), Piece(0.3, 0.5), Piece(0.7, 0.8)])
    assert len(s.pieces) == 2
    assert s.pieces[0].lower == 0.1 and s.pieces[0].upper == 0.5


def test_open_closed_abutment_merges():
    s = SubunitarySet([Piece(0.1, 0.3, True, False), Piece(0.3, 0.5)])
    assert len(s.pieces) == 1


def test_two_open_halves_do_not_merge():
    s = SubunitarySet([Piece(0.1, 0.3, True, False), Piece(0.3, 0.5, False, True)])
    assert len(s.pieces) == 2
    assert not s.contains(0.3)


def test_empty_set_rejected():
    with pytest.raises(EmptyOperand):
        SubunitarySet([])


# --- arithmetic ------------------------------------------------------------------

def test_addition_tracks_endpoints_and_openness():
    a = interval(0.1, 0.2)
    b = interval(0.3, 0.4, lc=False)
    c = a + b
    assert c.inf == pytest.approx(0.4)
    assert c.sup == pytest.approx(0.6)
    assert not c.pieces[0].lower_closed
    assert c.pieces[0].upper_closed


def test_subtraction_crosses_endpoints():
    a = interval(0.5, 0.8)
    b = interval(0.1, 0.3)
    c = a - b
    assert c.inf == pytest.approx(0.2)
    assert c.sup == pytest.approx(0.7)


def test_multiplication_rejects_negatives():
    with pytest.raises(ValueError):
        interval(0.1, 0.2) * (interval(0.5, 0.8) - interval(0.6, 0.9))


def test_point_arithmetic_matches_floats():
    a = SubunitarySet.point(0.3)
    b = SubunitarySet.point(0.4)
    assert (a + b).as_point() == 0.3 + 0.4
    assert (a * b).as_point() == 0.3 * 0.4
    assert (a - b).as_point() == 0.3 - 0.4


def sample_points(s, k=7):
    pts = []
    for p in s.pieces:
        if p.is_point:
            pts.append(p.lower)
            continue
        # clamp interior samples to representable members; a razor-thin
        # open piece may have no float strictly inside and yields nothing
        lo_in = p.lower if p.lower_closed else math.nextafter(p.lower, p.upper)
        hi_in = p.upper if p.upper_closed else math.nextafter(p.upper, p.lower)
        w = p.upper - p.lower
        inner = [min(max(p.lower + w * i / (k + 1), lo_in), hi_in)
                 for i in range(1, k + 1)]
        pts.extend(x for x in inner if lo_in <= x <= hi_in)
        if p.lower_closed:
            pts.append(p.lower)
        if p.upper_closed:
            pts.append(p.upper)
    return pts


set_strategy = st.lists(
    st.tuples(
        st.floats(0, 1, allow_nan=False, width=32),
        st.floats(0, 1, allow_nan=False, width=32),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=3,
).map(
    lambda spec: SubunitarySet(
        [Piece(min(a, b), max(a, b), lc, uc) for a, b, lc, uc in spec]
    )
)


def on_open_rim(s, v):
    """True when v sits exactly on an open endpoint of some piece.

    Endpoints are computed with round-to-nearest, so an image that is
    mathematically strictly inside can round onto the open bound when the
    piece is thinner than one ulp. Rounding is monotone, so images never
    land strictly outside; the rim is the only escape."""
    return any((not p.lower_closed and v == p.lower)
               or (not p.upper_closed and v == p.upper)
               for p in s.pieces)


@given(set_strategy, set_strategy)
@settings(max_examples=150)
def test_interval_arithmetic_contains_pointwise_images(a, b):
    for op, f in (("+", lambda x, y: x + y),
                  ("-", lambda x, y: x - y),
                  ("*", lambda x, y: x * y)):
        result = f(a, b)
        for x in sample_points(a, 3):
            for y in sample_points(b, 3):
                v = f(x, y)
                assert result.contains(v) or on_open_rim(result, v), (op, x, y)


@given(set_strategy)
@settings(max_examples=150)
def test_clamp_is_pointwise_truncation(s):
    shifted = s + SubunitarySet.point(0.5)
    clamped = shifted.clamp01()
    assert 0 <= clamped.inf and clamped.sup <= 1
    for x in sample_points(shifted, 5):
        assert clamped.contains(min(1.0, max(0.0, x)))


def test_sum_sets_folds_left():
    parts = [interval(0.1, 0.2), interval(0.2, 0.3), SubunitarySet.point(0.1)]
    total = sum_sets(parts)
    assert total.inf == pytest.approx(0.4)
    assert total.sup == pytest.approx(0.6)


# --- set arithmetic oracle ---------------------------------------------------------
# The dataclass pieces and case-by-case endpoint rules the named-tuple pieces
# replaced, kept word for word apart from names; a result set is the merged
# list of pieces. The package must give the same pieces, openness and endpoint
# floats, signed zeros included.

@dataclass(frozen=True)
class RefPiece:
    """One maximal run of a subunitary set: an interval or a point."""

    lower: float
    upper: float
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if self.lower > self.upper:
            raise ValueError(f"piece bounds out of order: {self.lower} > {self.upper}")
        if self.lower == self.upper:
            # A degenerate interval that is attained is a point; the
            # arithmetic below never produces an unattained one.
            object.__setattr__(self, "lower_closed", True)
            object.__setattr__(self, "upper_closed", True)


def ref_merge(pieces):
    """Coalesce overlapping or touching pieces into maximal runs."""
    pieces = sorted(pieces, key=lambda p: (p.lower, not p.lower_closed, p.upper))
    out = []
    for p in pieces:
        if out:
            cur = out[-1]
            touches = p.lower < cur.upper or (
                p.lower == cur.upper and (p.lower_closed or cur.upper_closed)
            )
            if touches:
                if p.upper > cur.upper:
                    up, upc = p.upper, p.upper_closed
                elif p.upper == cur.upper:
                    up, upc = cur.upper, cur.upper_closed or p.upper_closed
                else:
                    up, upc = cur.upper, cur.upper_closed
                out[-1] = RefPiece(cur.lower, up, cur.lower_closed, upc)
                continue
        out.append(p)
    return out


def ref_piece_add(a, b):
    return RefPiece(
        a.lower + b.lower,
        a.upper + b.upper,
        a.lower_closed and b.lower_closed,
        a.upper_closed and b.upper_closed,
    )


def ref_piece_sub(a, b):
    return RefPiece(
        a.lower - b.upper,
        a.upper - b.lower,
        a.lower_closed and b.upper_closed,
        a.upper_closed and b.lower_closed,
    )


def ref_piece_mul(a, b):
    lo = a.lower * b.lower
    up = a.upper * b.upper
    loc = a.lower_closed and b.lower_closed
    if lo == 0.0 and not loc:
        # Zero is attained as soon as either factor attains it.
        loc = (a.lower == 0.0 and a.lower_closed) or (b.lower == 0.0 and b.lower_closed)
    return RefPiece(lo, up, loc, a.upper_closed and b.upper_closed)


def ref_binary(a, b, op):
    return ref_merge([op(x, y) for x in a for y in b])


def ref_clamp01(pieces):
    """Pointwise image under min(1, max(0, .))."""
    out = []
    for p in pieces:
        lo, loc = p.lower, p.lower_closed
        up, upc = p.upper, p.upper_closed
        if lo < 0:
            lo, loc = 0.0, True
        if up > 1:
            up, upc = 1.0, True
        if up < 0:
            lo = up = 0.0
        if lo > 1:
            lo = up = 1.0
        out.append(RefPiece(min(lo, up), up, loc, upc))
    return ref_merge(out)


def ref_intersection(left, right):
    """Set intersection, or None when disjoint."""
    out = []
    for a in left:
        for b in right:
            lo = max(a.lower, b.lower)
            if a.lower > b.lower:
                loc = a.lower_closed
            elif b.lower > a.lower:
                loc = b.lower_closed
            else:
                loc = a.lower_closed and b.lower_closed
            up = min(a.upper, b.upper)
            if a.upper < b.upper:
                upc = a.upper_closed
            elif b.upper < a.upper:
                upc = b.upper_closed
            else:
                upc = a.upper_closed and b.upper_closed
            if lo < up or (lo == up and loc and upc):
                out.append(RefPiece(lo, up, loc, upc))
    return ref_merge(out) if out else None


# signed zeros, the unit's ends, just past 1, tiny and out-of-range values
ENDPOINTS = (-1.5, -0.5, -0.0, 0.0, 1e-300, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0, 1.0000001, 1.5,
             2.0)


def piece_specs(endpoint):
    """Lists of (lower, upper, lower_closed, upper_closed): open, closed,
    half-open and point pieces, overlapping, touching or apart."""
    piece = st.tuples(endpoint, endpoint, st.booleans(), st.booleans(), st.booleans()).map(
        lambda t: (t[0], t[0], t[2], t[3]) if t[4] else (min(t[:2]), max(t[:2]), t[2], t[3])
    )
    return st.lists(piece, min_size=1, max_size=4)


any_endpoint = st.one_of(st.sampled_from(ENDPOINTS), st.floats(-2, 2, width=32))
nonnegative_endpoint = st.one_of(st.sampled_from([x for x in ENDPOINTS if x >= 0]),
                                 st.floats(0, 2, width=32))


def rows(pieces):
    """Pieces as comparable rows; the reprs tell -0.0 from 0.0."""
    if pieces is None:
        return None
    return [(p.lower, p.upper, p.lower_closed, p.upper_closed, repr(p.lower), repr(p.upper))
            for p in pieces]


def both(spec):
    return SubunitarySet([Piece(*s) for s in spec]), ref_merge([RefPiece(*s) for s in spec])


@settings(max_examples=500, deadline=None)
@given(piece_specs(any_endpoint), piece_specs(any_endpoint))
@example([(0.0, 0.7, True, True)], [(-0.0, 1.0000001, False, False)])
@example([(-0.5, -0.0, False, False)], [(0.0, 1.5, False, True)])
def test_set_arithmetic_matches_the_reference(left, right):
    a, ref_a = both(left)
    b, ref_b = both(right)
    assert rows(a.pieces) == rows(ref_a)
    assert rows(b.pieces) == rows(ref_b)
    for op, ref_op in ((operator.add, ref_piece_add), (operator.sub, ref_piece_sub)):
        got = op(a, b)
        want = ref_binary(ref_a, ref_b, ref_op)
        assert rows(got.pieces) == rows(want)
        assert rows(got.clamp01().pieces) == rows(ref_clamp01(want))
    assert rows(a.clamp01().pieces) == rows(ref_clamp01(ref_a))
    got = a.intersection(b)
    assert rows(None if got is None else got.pieces) == rows(ref_intersection(ref_a, ref_b))


@settings(max_examples=300, deadline=None)
@given(piece_specs(nonnegative_endpoint), piece_specs(nonnegative_endpoint))
@example([(-0.0, 0.5, False, True)], [(0.0, 0.0, True, True), (0.2, 1.0, False, False)])
def test_set_product_matches_the_reference(left, right):
    a, ref_a = both(left)
    b, ref_b = both(right)
    got = a * b
    want = ref_binary(ref_a, ref_b, ref_piece_mul)
    assert rows(got.pieces) == rows(want)
    assert rows(got.clamp01().pieces) == rows(ref_clamp01(want))


# --- one-piece sets built directly ---------------------------------------------------
# A +, - or * of two one-piece sets, and SubunitarySet.point, build their set
# without the merge or Piece's checks. The generic constructor, given the
# piece the reference rule computes, must give the same set.

def generic(p):
    return SubunitarySet([Piece(p.lower, p.upper, p.lower_closed, p.upper_closed)])


def assert_same_set(got, want):
    assert type(got) is SubunitarySet and all(type(p) is Piece for p in got.pieces)
    assert rows(got.pieces) == rows(want.pieces)
    assert [tuple(map(type, p)) for p in got.pieces] == [(float, float, bool, bool)]
    assert got == want and hash(got) == hash(want)
    with pytest.raises(AttributeError):
        got.pieces = ()
    with pytest.raises(AttributeError):
        got.other = 1


def single_piece(endpoint):
    return piece_specs(endpoint).map(lambda specs: specs[0])


@settings(max_examples=300, deadline=None)
@given(single_piece(any_endpoint), single_piece(any_endpoint), st.sampled_from(ENDPOINTS))
@example((0.0, 1e-300, True, False), (0.0, 1e-300, True, False), -0.0)
@example((-0.0, 0.5, True, True), (-0.0, 0.5, False, True), 0.0)
def test_one_piece_operations_match_the_generic_constructor(left, right, x):
    a, b = SubunitarySet([Piece(*left)]), SubunitarySet([Piece(*right)])
    ref_a, ref_b = RefPiece(*left), RefPiece(*right)
    assert_same_set(a + b, generic(ref_piece_add(ref_a, ref_b)))
    assert_same_set(a - b, generic(ref_piece_sub(ref_a, ref_b)))
    if a.inf >= 0 and b.inf >= 0:
        assert_same_set(a * b, generic(ref_piece_mul(ref_a, ref_b)))
    assert_same_set(SubunitarySet.point(x), SubunitarySet([Piece(x, x)]))


def test_direct_builds_collapse_to_points_and_keep_zero_signs():
    tiny = interval(0, 1e-300, True, False)
    product = tiny * tiny
    assert product.pieces == ((0.0, 0.0, True, True),) and repr(product) == "{0.0}"
    assert product.is_point
    signed = interval(-0.0, 0.5)
    assert repr(SubunitarySet.point(-0.0)) == "{-0.0}"
    assert repr(SubunitarySet.point(0)) == "{0.0}"
    assert repr(signed + signed) == "[-0.0,1.0]"
    assert repr(signed * interval(0.0, 0.5)) == "[-0.0,0.25]"
    assert repr(SubunitarySet.point(-0.0) + SubunitarySet.point(0.0)) == "{0.0}"
    assert repr(SubunitarySet.point(-0.0) - SubunitarySet.point(0.0)) == "{-0.0}"
    assert repr(SubunitarySet.point(0.0) - SubunitarySet.point(-0.0)) == "{0.0}"


# --- one-pass coalesce against the merge -------------------------------------------
# Against a one-piece set, + and * take their images in order and coalesce
# them in one pass, without the merge's sort. The merge of all the images is
# the oracle: same pieces, same flags, same signed zeros. Endpoints include
# subnormals whose products round to zero, and offsets near 1e17 where
# neighbouring sums round to one float.

TIE_ENDPOINTS = (-20.0, -16.0, -0.5, -0.0, 0.0, 5e-324, 1e-323, 1e-17, 0.1, 0.25, 0.5, 1.0, 2.0,
                 1e17, 1e17 + 16, 2e17)
tie_endpoint = st.one_of(st.sampled_from(TIE_ENDPOINTS), st.floats(-1, 2, width=32))


def exact(pieces):
    return [(repr(lo), repr(up), lc, uc) for lo, up, lc, uc in pieces]


@settings(max_examples=800, deadline=None)
@given(piece_specs(tie_endpoint), single_piece(tie_endpoint))
# a zero start, open, then closed ones: subnormal starts times 0.25 round to 0
@example([(5e-324, 0.5, False, True), (1e-323, 0.6, True, True)], (0.25, 0.5, True, True))
# zero starts with mixed closedness against an open zero start
@example([(0.0, 0.1, True, True), (0.2, 0.3, False, True)], (0.0, 0.5, False, True))
# sums that tie after rounding: an open start ties a closed one where the run before ends open
@example([(-20.0, -16.0, True, False), (0.0, 1.0, False, True), (2.0, 2.0, True, True)],
         (1e17, 1e17 + 16, True, True))
@example([(-0.0, 0.1, False, True), (0.5, 1.0, True, True)], (-0.0, 0.0, True, True))
def test_one_pass_coalesce_matches_the_merge(spec, one):
    many = SubunitarySet([Piece(*s) for s in spec]).pieces
    assume(len(many) > 1)
    single = SubunitarySet([Piece(*one)]).pieces
    ops = [(_set_sum, _piece_add)]
    if many[0].lower >= 0 and single[0].lower >= 0:
        ops.append((_set_product, _piece_mul))
    for fast, piece_op in ops:
        for a, b in ((many, single), (single, many)):
            want = _merge([piece_op(p, q) for p in a for q in b])
            assert exact(fast(a, b)) == exact(want)


def test_piece_is_a_validated_four_tuple():
    p = Piece(0, 0.5, False)
    lower, upper, lower_closed, upper_closed = p
    assert (lower, upper, lower_closed, upper_closed) == (0.0, 0.5, False, True) == p
    assert p[0] is p.lower and type(p.lower) is float
    assert hash(p) == hash((0.0, 0.5, False, True))
    assert repr(p) == "Piece(lower=0.0, upper=0.5, lower_closed=False, upper_closed=True)"
    assert tuple(Piece(0.3, 0.3, False, False)) == (0.3, 0.3, True, True)
    # falsy flags are open ends, so the endpoint order can compare them
    touching = SubunitarySet([Piece(0.1, 0.2, None, 0), Piece(0.2, 0.3, None, None)])
    assert touching.pieces == ((0.1, 0.2, False, False), (0.2, 0.3, False, False))
    with pytest.raises(ValueError, match="out of order"):
        Piece(0.6, 0.5)
    with pytest.raises(AttributeError):
        p.lower = 0.1


def test_piece_replace_is_validated():
    p = Piece(0.5, 0.6)
    with pytest.raises(ValueError, match="out of order"):
        p._replace(lower=0.7)
    assert p._replace(lower_closed=None).lower_closed is False
    assert p._replace(upper=0.5) == (0.5, 0.5, True, True)
    assert type(p._replace(upper=1).upper) is float


def test_piece_make_is_validated():
    with pytest.raises(ValueError, match="out of order"):
        Piece._make([0.9, 0.1, True, True])
    made = Piece._make([0, 1, 0, None])
    assert made == (0.0, 1.0, False, False)
    assert type(made.lower) is float and made.upper_closed is False
    assert Piece._make((0.2, 0.2, False, False)) == (0.2, 0.2, True, True)


def test_set_constructor_checks_plain_tuples_as_piece_does():
    with pytest.raises(ValueError, match="out of order"):
        SubunitarySet([(0.5, 0.2, True, True)])
    cast = SubunitarySet([(1, 2, 1, 0)])
    assert [tuple(map(type, p)) for p in cast.pieces] == [(float, float, bool, bool)]
    assert repr(cast) == "[1.0,2.0)"
    assert SubunitarySet([(0.5, 0.5, False, False)]).pieces == ((0.5, 0.5, True, True),)
    # a Piece is taken as it is, beside a plain tuple
    mixed = SubunitarySet([Piece(0.0, 0.1), (0.1, 0.2, False, True)])
    assert mixed.pieces == ((0.0, 0.2, True, True),) and type(mixed.pieces[0]) is Piece


def test_sets_and_masses_refuse_del():
    s = SubunitarySet.point(0.3)
    m = PreciseMass(F2, {F2.atom(1): 1.0})
    for value, name in ((s, "pieces"), (m, "_masses"), (m, "frame")):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    assert hash(s) == hash(SubunitarySet.point(0.3)) and m.items() == [(F2.atom(1), 1.0)]


# --- parse and format ---------------------------------------------------------------

@pytest.mark.parametrize("text,inf,sup", [
    ("[0.1,0.2]u{0.3}", 0.1, 0.3),
    ("(0.4,0.6)u[0.7,0.8]", 0.4, 0.8),
    ("{0.5,0.6}", 0.5, 0.6),
    ("0.25", 0.25, 0.25),
    ("[0,0.4] U {0.5}", 0.0, 0.5),
    ("[0.1,0.2] ∪ {0.3}", 0.1, 0.3),
])
def test_parse_set_accepted_forms(text, inf, sup):
    s = parse_set(text)
    assert s.inf == pytest.approx(inf)
    assert s.sup == pytest.approx(sup)


@pytest.mark.parametrize("text", ["", "[0.1", "[0.2,0.1]", "{}", "[a,b]", "0.1,0.2",
                                  "(0.5,0.5)", "[0.5,0.5)", "(0.5,0.5]", "{0.1}u(0.5,0.50)"])
def test_parse_set_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_set(text)


def test_format_round_trips_exactly():
    s = parse_set("[0.1,0.2]u{0.3}u(0.5,0.7)")
    assert parse_set(format_set(s)) == s


@given(set_strategy)
@settings(max_examples=150)
def test_format_parse_round_trip(s):
    assert parse_set(format_set(s)) == s


def test_format_with_precision():
    s = parse_set("[0.123456789,0.2]")
    assert format_set(s, precision=3) == "[0.123,0.200]"
    assert format_set(s, style="unicode").count("∪") == 0


# --- precise masses ------------------------------------------------------------------

def test_precise_validation_catches_problems():
    a, b = F2.atom(1), F2.atom(2)
    good = PreciseMass(F2, {a: 0.4, b: 0.6})
    assert good.validate() == []
    bad_total = PreciseMass(F2, {a: 0.4, b: 0.5})
    assert any("total" in p for p in bad_total.validate())
    negative = PreciseMass(F2, {a: -0.1, b: 1.1})
    assert any("negative" in p for p in negative.validate())
    on_empty = PreciseMass(F2, {F2.empty(): 0.5, a: 0.5})
    assert on_empty.validate()
    with pytest.raises(ValidationError):
        bad_total.check()


def test_precise_validation_refuses_nan():
    # NaN compares false with every bound, so it would slip past the
    # negativity and total checks
    a, b = F2.atom(1), F2.atom(2)
    m = PreciseMass(F2, {a: float("nan"), b: 1.0})
    assert m.validate() == ["mass nan on th1 is not a number"]


def test_vacuous_and_normalize():
    v = PreciseMass.vacuous(F2)
    assert v.mass(F2.total_ignorance()) == 1.0
    assert v.validate() == []
    m = PreciseMass(F2, {F2.atom(1): 0.2, F2.atom(2): 0.6})
    n = m.normalize()
    assert n.total() == pytest.approx(1.0)
    assert n.mass(F2.atom(1)) == pytest.approx(0.25)
    with pytest.raises(ZeroTotalMass):
        PreciseMass(F2, {F2.atom(1): 0.0}).normalize()


def test_mass_equality_and_lookup():
    a = F2.atom(1)
    m1 = PreciseMass(F2, {a: 1.0})
    m2 = PreciseMass(F2, {F2.atom(1): 1.0})
    assert m1 == m2
    assert m1.mass(F2.atom(2)) == 0.0
    assert a in m1 and F2.atom(2) not in m1


# --- imprecise masses ---------------------------------------------------------------

def table_one_sources():
    a, b = F2.atom(1), F2.atom(2)
    m1 = ImpreciseMass(F2, {a: parse_set("[0.1,0.2]u{0.3}"),
                            b: parse_set("(0.4,0.6)u[0.7,0.8]")})
    m2 = ImpreciseMass(F2, {a: parse_set("[0.4,0.5]"),
                            b: parse_set("[0,0.4]u{0.5,0.6}")})
    return m1, m2


def test_lift_and_degenerate_back():
    m = PreciseMass(F2, {F2.atom(1): 0.3, F2.atom(2): 0.7})
    mi = lift(m)
    assert all(v.is_point for _, v in mi.items())
    back = to_precise(mi, {el: v.as_point() for el, v in mi.items()})
    assert back == m


def test_to_precise_rejects_outside_selection():
    m1, _ = table_one_sources()
    a, b = F2.atom(1), F2.atom(2)
    with pytest.raises(SelectionOutsideSet):
        to_precise(m1, {a: 0.25, b: 0.75})


def test_admissibility_witnesses_for_both_sources():
    m1, m2 = table_one_sources()
    for mi, expected in ((m1, {F2.atom(1): 0.3, F2.atom(2): 0.7}),
                         (m2, None)):
        assert is_admissible(mi)
        w = admissibility_witness(mi)
        assert math.isclose(sum(w.values()), 1.0, abs_tol=1e-7)
        for el, x in w.items():
            assert mi.mass(el).contains(x, tol=1e-9)
        if expected is not None:
            assert w == expected


def test_non_admissible_source_detected():
    a, b = F2.atom(1), F2.atom(2)
    low = ImpreciseMass(F2, {a: parse_set("[0.1,0.2]"), b: parse_set("[0.3,0.4]")})
    assert not is_admissible(low)
    assert admissibility_witness(low) is None
    gap = ImpreciseMass(F2, {a: parse_set("(0.5,0.6)"), b: parse_set("{0.4}")})
    assert not is_admissible(gap)


def test_imprecise_validation():
    a, b = F2.atom(1), F2.atom(2)
    out_of_unit = ImpreciseMass(F2, {a: parse_set("[0.5,1.2]"), b: parse_set("{0.1}")})
    assert out_of_unit.validate()
    ok = ImpreciseMass(F2, {a: parse_set("[0.5,0.6]"), b: parse_set("[0.4,0.5]")})
    assert ok.validate() == []


def test_imprecise_validation_refuses_a_negative_lower_end():
    # within_unit forgives 1e-9 below 0, but the set product refuses any
    # negative factor, so validation does not forgive it
    a, b = F2.atom(1), F2.atom(2)
    below = ImpreciseMass(F2, {a: parse_set("[-1e-10,0.5]"), b: parse_set("[0.5,1]")})
    assert below.validate() == ["set on th1 leaves [0,1]: [-1e-10,0.5]"]
    with pytest.raises(ValidationError):
        below.check()
    signed_zero = ImpreciseMass(F2, {a: parse_set("[-0.0,0.5]"), b: parse_set("[0.5,1]")})
    assert signed_zero.validate() == []


def test_imprecise_validation_names_non_sets_and_a_nonzero_empty_element():
    a = F2.atom(1)
    assert ImpreciseMass(F2, {a: 0.5}).validate() == ["value on th1 is not a set"]
    nonzero_empty = ImpreciseMass(F2, {F2.empty(): SubunitarySet.point(0.5),
                                       a: SubunitarySet.point(1.0)})
    assert nonzero_empty.validate() == ["empty element carries nonzero set {0.5}"]


def test_mass_refuses_a_focal_element_of_another_frame():
    with pytest.raises(FrameMismatch, match="focal element belongs to a different frame"):
        PreciseMass(F2, {Frame(("a", "b")).atom(1): 1.0})


def test_check_returns_the_mass_and_a_problem_string_is_a_list_of_one():
    m = PreciseMass(F2, {F2.atom(1): 1.0})
    assert m.check() is m
    assert ValidationError("x").problems == ["x"]


def test_to_precise_needs_a_selection_per_focal_element():
    m1, _ = table_one_sources()
    with pytest.raises(SelectionOutsideSet, match="no selection for th1"):
        to_precise(m1, {})


def test_an_empty_imprecise_mass_is_not_admissible():
    empty = ImpreciseMass(F2, {})
    assert is_admissible(empty) is False
    assert admissibility_witness(empty) is None


@pytest.mark.parametrize("a_set,b_set,b_pick", [
    # both ends open: the midpoint, with no closed end to snap to
    ("(0.2,0.4)", "(0.6,0.8)", 0.7),
    # open lower ends: the closed upper end
    ("(0.5,0.7]", "(0.3,0.5]", 0.5),
])
def test_witness_picks_inside_open_pieces(a_set, b_set, b_pick):
    a, b = F2.atom(1), F2.atom(2)
    mi = ImpreciseMass(F2, {a: parse_set(a_set), b: parse_set(b_set)})
    w = admissibility_witness(mi)
    assert w[b] == b_pick
    assert math.isclose(sum(w.values()), 1.0, abs_tol=1e-7)
    assert all(mi.mass(el).contains(x) for el, x in w.items())


def test_as_point_refuses_an_interval():
    with pytest.raises(ValueError, match=r"\[0.1,0.2\] is not a single point"):
        SubunitarySet.interval(0.1, 0.2).as_point()


def test_imprecise_repr():
    a, b = F2.atom(1), F2.atom(2)
    mi = ImpreciseMass(F2, {a: parse_set("[0.2,0.4]u{0.6}"), b: SubunitarySet.point(0.5)})
    assert repr(mi) == "ImpreciseMass({th1: [0.2,0.4]u{0.6}, th2: {0.5}})"
