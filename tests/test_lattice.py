import hashlib
import itertools
import os
import sys
from array import array
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse.errors import (
    DegenerateModel,
    EmptyArgument,
    EmptyFrame,
    FrameMismatch,
    FrameTooLarge,
    IndexOutOfRange,
)
from dsmfuse.lattice import (
    CHUNK,
    MAX_FRAME_SIZE,
    Frame,
    LatticeElement,
    Model,
    canonical_form,
    component_union,
    dsm_cardinality,
    _free_table,
    enumerate_bitsets,
    enumerate_hyper_power_set,
    exclusivity,
    expressions,
    total_ignorance,
    upward_closure,
)

COUNTS = {0: 1, 1: 2, 2: 5, 3: 19, 4: 167, 5: 7580}


def frame_of(n):
    return Frame(tuple(f"th{i}" for i in range(1, n + 1)))


# --- enumeration ------------------------------------------------------------

@pytest.mark.parametrize("n,count", sorted(COUNTS.items()))
def test_element_counts(n, count):
    assert len(enumerate_bitsets(n)) == count


# SHA-256 of the n=6 enumeration as 8-byte little-endian words, taken from
# the quadratic doubling below
SIX_DIGEST = "cff9f06d29405dc7d4695e13adeb3cac173a5a87c58c8b643980e18cce394e7f"


@pytest.mark.skipif(not os.environ.get("DSMFUSE_STRESS"),
                    reason="set DSMFUSE_STRESS=1 to enumerate the n=6 lattice")
def test_element_count_six():
    bitsets = array("Q", enumerate_bitsets(6))
    assert len(bitsets) == 7828353
    if sys.byteorder == "big":
        bitsets.byteswap()
    assert hashlib.sha256(bitsets).hexdigest() == SIX_DIGEST


# SHA-256 of the ascii expressions of the n=6 enumeration, one a line, taken
# from the byte-column renderer that the lane renderer replaced
SIX_EXPRESSIONS_DIGEST = "f8f4aab119e039f8a875b9f34ecd6204131ee509beff761869a0be375b3c47a1"


@pytest.mark.skipif(not os.environ.get("DSMFUSE_STRESS"),
                    reason="set DSMFUSE_STRESS=1 to render the n=6 lattice")
def test_expression_digest_six():
    digest = hashlib.sha256()
    rows = expressions(frame_of(6).labels, "ascii", _free_table(6))
    while chunk := list(itertools.islice(rows, CHUNK)):
        digest.update("\n".join(chunk).encode() + b"\n")
    assert digest.hexdigest() == SIX_EXPRESSIONS_DIGEST


def doubling_bitsets(n):
    """The enumeration as first written: the quadratic doubling of monotone
    0/1 functions, then a sort on (part count, bits)."""
    masks = [0, 1]
    width = 1
    for _ in range(n):
        masks = [lo | (hi << width) for hi in masks for lo in masks if lo & ~hi == 0]
        width <<= 1
    bitsets = [h >> 1 for h in masks if not h & 1]
    bitsets.sort(key=lambda b: (b.bit_count(), b))
    return bitsets


@pytest.mark.parametrize("n", range(6))
def test_enumeration_matches_the_doubling_in_order(n):
    assert enumerate_bitsets(n) == doubling_bitsets(n)


def test_enumeration_hands_out_a_copy_of_its_table():
    enumerate_bitsets(3).clear()
    assert len(enumerate_bitsets(3)) == 19


def brute_force_bitsets(n):
    """Every upward-closed family of nonempty parts, by direct check."""
    parts = list(range(1, 1 << n))
    out = []
    for bits in range(1 << len(parts)):
        ok = True
        for s in parts:
            if not bits >> (s - 1) & 1:
                continue
            for t in parts:
                if s & t == s and not bits >> (t - 1) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(bits)
    return sorted(out, key=lambda b: (b.bit_count(), b))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_enumeration_matches_brute_force(n):
    assert enumerate_bitsets(n) == brute_force_bitsets(n)


def test_enumeration_rejects_oversized_frame():
    with pytest.raises(FrameTooLarge):
        enumerate_bitsets(7)


def test_free_three_hypothesis_expressions():
    f = frame_of(3)
    exprs = [el.expr(style="ascii") for el in enumerate_hyper_power_set(f)]
    assert exprs[0] == "{}"
    assert exprs[1] == "th1&th2&th3"
    assert exprs[-1] == "th1|th2|th3"
    assert "th2|(th1&th3)" in exprs
    assert "(th1&th2)|(th1&th3)|(th2&th3)" in exprs
    assert len(set(exprs)) == 19


# --- frames and elements ------------------------------------------------------

def test_frame_validation():
    # a zero-hypothesis frame is legal (its lattice is just the empty
    # element) but has no total ignorance
    with pytest.raises(EmptyFrame):
        Frame(()).total_ignorance()
    with pytest.raises(ValueError):
        Frame(("a", "a"))
    with pytest.raises(FrameTooLarge):
        Frame(tuple("abcdefg"))
    f = frame_of(2)
    with pytest.raises(IndexOutOfRange):
        f.atom(0)
    with pytest.raises(IndexOutOfRange):
        f.atom(3)


def test_empty_and_ignorance():
    f = frame_of(2)
    assert f.empty().bits == 0
    assert f.total_ignorance().bits == (1 << f.part_count) - 1
    assert total_ignorance(f) == f.total_ignorance()


def test_meet_join_against_set_semantics():
    # elements are families of Venn parts, so & and | are set intersection
    # and union of those families
    f = frame_of(3)
    a, b = f.atom(1), f.atom(2)
    assert (a & b).bits == a.bits & b.bits
    assert (a | b).bits == a.bits | b.bits
    assert a <= (a | b)
    assert (a & b) <= a
    assert a.intersects(a | b)


def test_cross_frame_operations_rejected():
    a = frame_of(2).atom(1)
    b = frame_of(3).atom(1)
    with pytest.raises(FrameMismatch):
        a & b


def elements(n):
    f = frame_of(n)
    return enumerate_hyper_power_set(f)


@given(st.data())
@settings(max_examples=200)
def test_lattice_closure_and_laws(data):
    els = elements(3)
    x = data.draw(st.sampled_from(els))
    y = data.draw(st.sampled_from(els))
    bits = {e.bits for e in els}
    assert (x & y).bits in bits
    assert (x | y).bits in bits
    assert (x & y) == (y & x)
    assert (x | y) == (y | x)
    assert (x & (x | y)) == x
    assert (x | (x & y)) == x


@given(st.data())
@settings(max_examples=200)
def test_elements_stay_upward_closed(data):
    els = elements(3)
    x = data.draw(st.sampled_from(els))
    y = data.draw(st.sampled_from(els))
    assert (x & y).is_upward_closed()
    assert (x | y).is_upward_closed()


def test_minimal_parts_reconstruct_element():
    f = frame_of(3)
    for el in enumerate_hyper_power_set(f):
        rebuilt = 0
        for part in el.minimal_parts():
            for s in range(1, 1 << f.n):
                if s & part == part:
                    rebuilt |= 1 << (s - 1)
        assert rebuilt == el.bits


def test_component_union():
    f = frame_of(3)
    a, b, c = f.atom(1), f.atom(2), f.atom(3)
    assert component_union(a & b) == (a | b)
    assert component_union((a & b) | c) == (a | b | c)
    assert component_union(a) == a
    with pytest.raises(EmptyArgument):
        component_union(f.empty())


def test_upward_closure():
    f = frame_of(3)
    # identity on elements that are already upward closed
    for el in enumerate_hyper_power_set(f):
        assert upward_closure(el) == el
    # a reduced representative closes back to the free element of its class
    shafer = Model.shafer(f)
    a1 = f.atom(1)
    r1 = shafer.reduce(a1)
    assert r1 != a1
    assert upward_closure(r1) == a1
    partial = Model.hybrid(f, [exclusivity(f, 1, 3), exclusivity(f, 2, 3)])
    for el in partial.alive_elements():
        closed = upward_closure(el)
        assert closed.is_upward_closed()
        assert partial.reduce(closed) == el


# --- models ----------------------------------------------------------------------

def test_shafer_two_hypotheses_collapses_to_power_set():
    f = frame_of(2)
    m = Model.shafer(f)
    alive = m.alive_elements()
    exprs = [el.expr(style="ascii") for el in alive]
    assert exprs == ["{}", "th1", "th2", "th1|th2"]


def test_partial_exclusivity_model_listing():
    # only th1 and th2 may overlap; nine named entries plus the
    # often-forgotten th3|(th1&th2)
    f = frame_of(3)
    m = Model.hybrid(f, [exclusivity(f, 1, 3), exclusivity(f, 2, 3)])
    table = {el.expr(style="ascii"): dsm_cardinality(m, el) for el in m.alive_elements()}
    assert table == {
        "{}": 0,
        "th1&th2": 1,
        "th3": 1,
        "th1": 2,
        "th2": 2,
        "th3|(th1&th2)": 2,
        "th1|th2": 3,
        "th1|th3": 3,
        "th2|th3": 3,
        "th1|th2|th3": 4,
    }


def test_iter_alive_elements_streams_the_same_listing():
    f = frame_of(3)
    models = [
        Model.free(f),
        Model.shafer(f),
        Model.shafer(f, [f.atom(3)]),
        Model.hybrid(f, [exclusivity(f, 1, 3), exclusivity(f, 2, 3)]),
    ]
    for m in models:
        it = m.iter_alive_elements()
        assert iter(it) is it  # lazy, not a prebuilt list
        assert list(it) == m.alive_elements()


def test_named_element_cardinalities():
    f = frame_of(3)
    m = Model.hybrid(f, [exclusivity(f, 1, 3), exclusivity(f, 2, 3)])
    a1, a2, a3 = f.atom(1), f.atom(2), f.atom(3)
    cards = [
        dsm_cardinality(m, f.empty()),
        dsm_cardinality(m, a1 & a2),
        dsm_cardinality(m, a3),
        dsm_cardinality(m, a1),
        dsm_cardinality(m, a2),
        dsm_cardinality(m, a1 | a2),
        dsm_cardinality(m, a1 | a3),
        dsm_cardinality(m, a2 | a3),
        dsm_cardinality(m, a1 | a2 | a3),
    ]
    assert cards == [0, 1, 1, 2, 2, 3, 3, 3, 4]


def test_free_model_cardinality_bounds():
    f = frame_of(3)
    m = Model.free(f)
    assert dsm_cardinality(m, f.total_ignorance()) == 7
    assert dsm_cardinality(m, f.empty()) == 0
    assert all(1 <= dsm_cardinality(m, el) <= 7
               for el in enumerate_hyper_power_set(f)[1:])


def test_reduction_and_model_equality():
    f = frame_of(3)
    shafer = Model.shafer(f)
    spelled_out = Model.hybrid(f, [exclusivity(f, i, j)
                                   for i in range(1, 4) for j in range(i + 1, 4)])
    # same dead parts, different construction; reduction behaves identically
    assert shafer.emptied == spelled_out.emptied
    a1, a2 = f.atom(1), f.atom(2)
    assert shafer.reduce(a1 & a2).is_empty
    assert shafer.is_model_empty(a1 & a2)
    assert shafer.same_element(a1 | (a1 & a2), a1)
    assert spelled_out.is_shafer_compatible()
    assert not Model.free(f).is_shafer_compatible()


def test_degenerate_model_detected():
    f = frame_of(2)
    m = Model.hybrid(f, [f.atom(1), f.atom(2)])
    assert m.is_degenerate()
    with pytest.raises(DegenerateModel):
        m.check_not_degenerate()


def test_canonical_form_after_reduction():
    f = frame_of(3)
    m = Model.shafer(f)
    a1, a2 = f.atom(1), f.atom(2)
    assert canonical_form(m, a1 | (a1 & a2)) == canonical_form(m, a1)
    assert canonical_form(m, a1 & a2) in ("∅", "{}")


@given(st.data())
@settings(max_examples=200)
def test_reduce_is_idempotent_and_monotone(data):
    f = frame_of(3)
    els = enumerate_hyper_power_set(f)
    pool = [f.atom(1) & f.atom(2), f.atom(2) & f.atom(3), f.atom(1) & f.atom(3)]
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=2))
    m = Model.hybrid(f, picks) if picks else Model.free(f)
    x = data.draw(st.sampled_from(els))
    y = data.draw(st.sampled_from(els))
    rx = m.reduce(x)
    assert m.reduce(rx) == rx
    if x <= y:
        assert m.reduce(x) <= m.reduce(y)


def test_element_repr_and_hash():
    f = frame_of(2)
    a = f.atom(1)
    assert "th1" in repr(a)
    assert len({a, f.atom(1), f.atom(2)}) == 2
    with pytest.raises(AttributeError):
        a.bits = 0


def test_element_refuses_assignment_and_deletion():
    x = frame_of(2).atom(1)
    for name in ("frame", "bits"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, frame_of(1) if name == "frame" else 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(x, name)
    # still whole, so still usable as a key
    assert x == frame_of(2).atom(1) and hash(x) == hash(x.bits)


def test_model_refuses_assignment_and_deletion_and_keeps_its_hash():
    f = frame_of(2)
    m = Model.shafer(f)
    before = hash(m)
    for name in Model.__slots__:
        with pytest.raises(AttributeError, match="Model is immutable"):
            setattr(m, name, 0)
        with pytest.raises(AttributeError, match="Model is immutable"):
            delattr(m, name)
    assert hash(m) == before and m == Model.shafer(f)
    assert repr(m) == "Model(shafer, frame=('th1', 'th2'), dead_parts=0x4)"


def test_bad_frames_and_models_are_refused():
    f = frame_of(2)
    with pytest.raises(ValueError, match="nonempty string"):
        Frame(("a", ""))
    with pytest.raises(ValueError, match="unknown model kind 'bogus'"):
        Model(f, "bogus")
    with pytest.raises(FrameMismatch, match="constraint element belongs to a different frame"):
        Model.hybrid(f, [Frame(("a", "b")).atom(1)])


# --- the mask algebra against part-by-part reference loops ---------------------

def ref_atom(n, index):
    bit = 1 << (index - 1)
    bits = 0
    for s in range(1, 1 << n):
        if s & bit:
            bits |= 1 << (s - 1)
    return bits


def ref_minimal_parts(n, bits):
    present = [s for s in range(1, 1 << n) if bits >> (s - 1) & 1]
    minimal = []
    for s in present:
        if not any(t != s and t & ~s == 0 for t in present):
            minimal.append(s)
    minimal.sort(key=lambda s: (s.bit_count(), s))
    return minimal


def ref_upward_closure(n, bits):
    universe = (1 << n) - 1
    out = bits
    while bits:
        low = bits & -bits
        bits ^= low
        s = low.bit_length()
        rest = universe & ~s
        sub = rest
        while True:
            out |= 1 << ((s | sub) - 1)
            if not sub:
                break
            sub = (sub - 1) & rest
    return out


def ref_is_upward_closed(n, bits):
    for s in range(1, 1 << n):
        if not bits >> (s - 1) & 1:
            continue
        for j in range(n):
            t = s | (1 << j)
            if t != s and not bits >> (t - 1) & 1:
                return False
    return True


def ref_shafer_mask(n):
    emptied = 0
    for s in range(1, 1 << n):
        if s.bit_count() >= 2:
            emptied |= 1 << (s - 1)
    return emptied


def ref_is_shafer_compatible(n, emptied):
    for s in range(1, 1 << n):
        if s.bit_count() >= 2 and not emptied >> (s - 1) & 1:
            return False
    return True


def ref_component_union(n, bits):
    mask = 0
    for s in ref_minimal_parts(n, bits):
        mask |= s
    out = 0
    for j in range(n):
        if mask >> j & 1:
            out |= ref_atom(n, j + 1)
    return out


def ref_expr(frame, bits, style):
    inter, union, empty = ("∩", "∪", "∅") if style == "unicode" else ("&", "|", "{}")
    if bits == 0:
        return empty
    terms = []
    groups = ref_minimal_parts(frame.n, bits)
    for s in groups:
        labs = [frame.labels[j] for j in range(frame.n) if s >> j & 1]
        term = inter.join(labs)
        if len(labs) > 1 and len(groups) > 1:
            term = "(" + term + ")"
        terms.append(term)
    return union.join(terms)


def assert_matches_reference(n, bits):
    f = frame_of(n)
    x = LatticeElement(f, bits)
    assert x.minimal_parts() == ref_minimal_parts(n, bits)
    assert upward_closure(x).bits == ref_upward_closure(n, bits)
    assert x.is_upward_closed() == ref_is_upward_closed(n, bits)
    for style in ("unicode", "ascii"):
        assert x.expr(style=style) == ref_expr(f, bits, style)
    if bits:
        assert component_union(x).bits == ref_component_union(n, bits)
    # the bitset as a constraint empties exactly its own parts
    assert (Model.hybrid(f, [x]).is_shafer_compatible()
            == ref_is_shafer_compatible(n, bits))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_mask_algebra_matches_reference_on_every_bitset(n):
    # every family of parts, upward closed or not
    for bits in range(1 << ((1 << n) - 1)):
        assert_matches_reference(n, bits)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mask_algebra_matches_reference_on_wider_frames(data):
    n = data.draw(st.integers(4, 6))
    assert_matches_reference(n, data.draw(st.integers(0, (1 << ((1 << n) - 1)) - 1)))


@pytest.mark.parametrize("n", range(MAX_FRAME_SIZE + 1))
def test_atoms_and_shafer_mask_match_the_part_scan(n):
    f = frame_of(n)
    assert [f.atom(i).bits for i in range(1, n + 1)] == [ref_atom(n, i) for i in range(1, n + 1)]
    shafer = Model.shafer(f)
    assert shafer.emptied == ref_shafer_mask(n)
    assert shafer.is_shafer_compatible()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_mask_algebra_matches_reference_on_every_byte_alone(n):
    # minimal parts and rank order are read from one table entry per byte of
    # a bitset, so check every value of every byte on its own, the partial
    # last byte at n=6 (parts 56-62) included
    parts = (1 << n) - 1
    for k in range(0, parts, 8):
        for v in range(1 << min(8, parts - k)):
            assert_matches_reference(n, v << k)


def test_reduced_expressions_match_reference():
    # listings and decide tables render reduced bitsets, which are not
    # upward closed: the table of parts above still names their dead parts
    f = frame_of(5)
    models = [
        Model.shafer(f),
        Model.hybrid(f, [exclusivity(f, 1, 2)]),
        Model.hybrid(f, [exclusivity(f, 1, 3), exclusivity(f, 2, 4),
                         f.atom(3) & f.atom(4) & f.atom(5)]),
    ]
    for m in models:
        for x in m.iter_alive_elements():
            for style in ("unicode", "ascii"):
                assert x.expr(style=style) == ref_expr(f, x.bits, style)


# --- alive bitsets and batch rendering against their originals ------------------

@st.composite
def small_models(draw):
    """A free, shafer or hybrid model over 1-5 hypotheses, the last two with
    up to three constraints, each the meet of some hypotheses."""
    n = draw(st.integers(1, 5))
    f = frame_of(n)
    kind = draw(st.sampled_from(["free", "shafer", "hybrid"]))
    meet = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True).map(
        lambda picks: reduce(and_, (f.atom(i) for i in picks)))
    return Model(f, kind, [] if kind == "free" else draw(st.lists(meet, max_size=3)))


def five_hypothesis_models():
    f = frame_of(5)
    return [
        Model.shafer(f),
        Model.hybrid(f, [exclusivity(f, 1, 2)]),
        Model.hybrid(f, [exclusivity(f, 1, 3), exclusivity(f, 2, 4),
                         f.atom(3) & f.atom(4) & f.atom(5)]),
    ]


def ref_alive_elements(model):
    """Distinct reduced elements by a set-dedupe walk over the free table."""
    if model.emptied == 0:
        # nothing to reduce, so the free enumeration is already distinct
        for b in _free_table(model.frame.n):
            yield LatticeElement(model.frame, b)
        return
    seen = set()
    for b in _free_table(model.frame.n):
        r = b & ~model.emptied
        if r not in seen:
            seen.add(r)
            yield LatticeElement(model.frame, r)


def assert_alive_bits_match_reference(model):
    assert list(model.alive_bits()) == [el.bits for el in ref_alive_elements(model)]


@given(small_models())
@settings(max_examples=60, deadline=None)
def test_alive_bits_match_the_dedupe_walk(model):
    assert_alive_bits_match_reference(model)


def test_alive_bits_match_the_dedupe_walk_on_five_hypotheses():
    for m in five_hypothesis_models() + [Model.free(frame_of(5))]:
        assert_alive_bits_match_reference(m)


def ref_alive_bits(model):
    """alive_bits as first written: every reduction of the free table, kept
    at its first occurrence by dict.fromkeys."""
    table = _free_table(model.frame.n)
    return array("Q", dict.fromkeys(map(and_, table, itertools.repeat(~model.emptied))))


@st.composite
def closed_models(draw):
    """A model over 0-5 hypotheses whose constraints are lattice elements:
    free, shafer, shafer with constraints, hybrid, or one emptying every
    part. A constraint is a meet of hypotheses or any free element."""
    n = draw(st.integers(0, 5))
    f, table = frame_of(n), _free_table(n)
    kind = draw(st.sampled_from(["free", "shafer", "shafer+", "hybrid", "degenerate"]))
    if kind in ("free", "shafer"):
        return Model(f, kind)
    if kind == "degenerate":
        return Model.hybrid(f, [LatticeElement(f, table[-1])])
    element = st.integers(0, len(table) - 1).map(lambda i: LatticeElement(f, table[i]))
    if n:
        meet = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True).map(
            lambda picks: reduce(and_, (f.atom(i) for i in picks)))
        element = st.one_of(meet, element)
    constraints = draw(st.lists(element, min_size=1, max_size=3))
    return Model(f, "shafer" if kind == "shafer+" else "hybrid", constraints)


@given(closed_models())
@settings(max_examples=250, deadline=None)
def test_alive_bits_match_the_dict_dedupe(model):
    assert model.alive_bits() == ref_alive_bits(model)


@pytest.mark.skipif(not os.environ.get("DSMFUSE_STRESS"),
                    reason="set DSMFUSE_STRESS=1 to reduce the n=6 lattice")
def test_alive_bits_six():
    # the lane filter and the dict dedupe over the 7,828,353-row n=6 table
    f = frame_of(6)
    for m in (Model.shafer(f), Model.hybrid(f, [exclusivity(f, 1, 2)]),
              Model.hybrid(f, [exclusivity(f, 1, 3), exclusivity(f, 2, 4),
                               f.atom(3) & f.atom(4) & f.atom(5)])):
        got, want = m.alive_bits(), ref_alive_bits(m)
        assert len(got) == len(want)
        assert hashlib.sha256(got).hexdigest() == hashlib.sha256(want).hexdigest()


def assert_expressions_match_reference(f, bitsets):
    for style in ("unicode", "ascii"):
        batch = list(expressions(f.labels, style, bitsets))
        assert batch == [ref_expr(f, b, style) for b in bitsets]
        assert batch == [LatticeElement(f, b).expr(style) for b in bitsets]


@given(small_models())
@settings(max_examples=30, deadline=None)
def test_expressions_match_reference_on_alive_bitsets(model):
    assert_expressions_match_reference(model.frame, model.alive_bits())


def test_expressions_match_reference_on_five_hypothesis_models():
    for m in five_hypothesis_models():
        assert_expressions_match_reference(m.frame, m.alive_bits())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_expressions_match_reference_on_any_bitsets(data):
    # any family of parts, so the partial last byte at n=6 is covered too; a few
    # batches repeat a drawn one to just below, at and just past one CHUNK
    n = data.draw(st.integers(0, 6))
    size = data.draw(st.integers(0, 40))
    bitsets = data.draw(st.lists(st.integers(0, (1 << ((1 << n) - 1)) - 1),
                                 min_size=size, max_size=size))
    if bitsets and data.draw(st.integers(0, 15)) == 15:
        size = CHUNK + data.draw(st.sampled_from([-1, 0, 1]))
        bitsets = list(itertools.islice(itertools.cycle(bitsets), size))
    assert_expressions_match_reference(frame_of(n), bitsets)


@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_expressions_keep_each_bitset_in_its_own_lane(size):
    # minimal parts come from one bitset per 64-bit lane of an int: rows holding
    # every part, or only the top part 62, sit beside empty and one-part rows,
    # so a shift that crossed into a neighbouring lane would change its row;
    # read backwards too, so a row holding every part takes an int's last lane
    f = frame_of(6)
    bitsets = [((1 << 63) - 1, 0, 1 << 62, 1 << (r % 63))[r % 4] for r in range(size)]
    for style in ("unicode", "ascii"):
        expected = {b: ref_expr(f, b, style) for b in set(bitsets)}
        for batch in (bitsets, bitsets[::-1]):
            assert list(expressions(f.labels, style, batch)) == [expected[b] for b in batch]


def test_expressions_stream():
    # a listing renders as it reads: one chunk, never the whole input
    bits = frame_of(3).total_ignorance().bits
    assert next(expressions(frame_of(3).labels, "ascii", itertools.repeat(bits))) == "th1|th2|th3"
