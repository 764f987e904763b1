"""Frames, lattice elements, and interpretation models.

A frame is a finite list of hypotheses. The elements built from those
hypotheses with union and intersection form a finite distributive lattice;
each element is stored as the set of Venn regions ("parts") it covers,
packed into an int bitset. A part is a nonempty subset of hypothesis
indices, encoded as subset-mask s with bitset bit (s - 1), so meet and join
are plain bitwise AND and OR. With at most 6 hypotheses there are at most
63 parts and every element fits a machine word.

Adding hypothesis j to a part that lacks it moves the part's bit up by 2**j,
so (bits & lacks_j) << 2**j grows every part of bits by j and n such
shift-ORs close a bitset upward. n more, on the closure, give the parts
lying strictly above some part of the bitset, and its minimal parts are the
rest. This is exact on any bitset, not only upward-closed ones, which
matters because model reduction strips dead parts from every fused key.

One closure algebra serves one bitset or LANES of them: the lacks_j masks
fill LANES 64-bit lanes, one bitset per lane, and & stops at the shorter
operand, so the same shift-ORs close a single bitset or an int packing a
run of them (CHUNK-wide masks, 35 KB each, raised peak RSS). A part index
is at most 62, so no shift-OR carries into the next lane.

expressions renders CHUNK bitsets at a time. The bytes of their minimal
parts, in byte columns (_COLUMNS: byte k of every packed bitset is one
stride of the native bytes), move into (size, mask) rank order by
bytes.translate, one 256-byte table per input byte k and output byte i,
ORed as ints, all-zero tables skipped; one map per ranked column picks its
joined terms. A single bitset takes the same pass: its fixed cost is some
microseconds per call.

A Model declares which parts are impossible (empty). Reducing an element
under a model clears its dead parts; two elements are equal under the model
when their reduced bitsets are equal. Listings stay on ints: alive_bits
hands out a model's alive bitsets and expressions renders them in one
batch; a LatticeElement wraps a bitset only where a caller is handed one.

alive_bits filters the free table on the same lanes. The reduction
r = U & alive of a free element U lies inside U, so U holds the upward
closure of r; that closure lies between r and U, so its reduction is r
again. It is thus the unique smallest free element with reduction r, and
the first in (part count, bits) order, where a strict superset comes
later: U is the first row with its reduction exactly when U is the closure
of U & alive. Per run of LANES rows, an AND with the alive mask and n
shift-ORs close each lane's reduction upward, a XOR with the rows leaves a
lane nonzero on each later copy, shift-ORs fold the bytes a part can
occupy into the lane's low byte, bytes.translate turns that byte into a
keep flag and itertools.compress keeps the flagged reductions.
"""

import sys
from array import array
from dataclasses import dataclass
from functools import cache, lru_cache, partial, reduce
from itertools import compress, islice, repeat
from operator import add, getitem, or_

from .errors import (
    DegenerateModel,
    EmptyArgument,
    EmptyFrame,
    FrameMismatch,
    FrameTooLarge,
    IndexOutOfRange,
)

MAX_FRAME_SIZE = 6
CHUNK = 4096  # bitsets per column pass: bounds what a streaming listing holds at once
LANES = 512  # bitsets per int of the lane pass: keeps its ints and cached masks at 4 KB


@cache
def _atoms(n):
    """Bitset of each hypothesis over n: the parts whose subset-mask names it."""
    return tuple(sum(1 << (s - 1) for s in range(1, 1 << n) if s >> j & 1)
                 for j in range(n))


@lru_cache(maxsize=32)
def _label_atoms(labels):
    """Atom bitset of each label of a frame."""
    return dict(zip(labels, _atoms(len(labels))))


def _per_byte(values, zero, join):
    """Per byte k of a part bitset, the table of join over the values of the
    bits set in each byte value v: v's entry is the entry without v's top
    bit joined with that bit's value, one join per entry. There is always a
    table, so a fold over a bitset's bytes has a first entry."""
    tables = []
    for base in range(0, len(values) or 1, 8):
        table = [zero]
        for value in values[base:base + 8]:
            table += [join(entry, value) for entry in table]
        tables.append(table)
    return tables


@cache
def _part_tables(n):
    """Per-byte tables over n hypotheses of each part's bit moved to its
    rank in (size, mask) order; also the subset-masks in rank order."""
    order = sorted(range(1, 1 << n), key=lambda s: (s.bit_count(), s))
    rank = {s: r for r, s in enumerate(order)}
    return _per_byte([1 << rank[p + 1] for p in range((1 << n) - 1)], 0, or_), order


# byte k of every bitset packed in an array("Q") is the stride _COLUMNS[k]
# of its native bytes
_COLUMNS = [slice(k if sys.byteorder == "little" else 7 - k, None, 8) for k in range(8)]


@cache
def _lanes(n):
    """The lane algebra over n hypotheses: per hypothesis j, the parts
    lacking j in each of LANES 64-bit lanes and the shift 2**j that grows
    them by j; and (k, i, table) per input byte k and output byte i whose
    256-byte table, byte i of byte k's parts moved to their rank positions,
    is not all zero."""
    full = (1 << ((1 << n) - 1)) - 1
    grow = [(int.from_bytes((full ^ atom).to_bytes(8, "little") * LANES, "little"), 1 << j)
            for j, atom in enumerate(_atoms(n))]
    ranked = [entries + [0] * (256 - len(entries)) for entries in _part_tables(n)[0]]
    moves = [(k, i, table) for k, entries in enumerate(ranked) for i in range(len(ranked))
             if any(table := bytes(e >> 8 * i & 255 for e in entries))]
    return grow, moves


def _close_up(n, bits):
    """bits with every part containing one of its parts switched on: one
    bitset, or LANES of them on the lanes of one int."""
    for lane, shift in _lanes(n)[0]:
        bits |= (bits & lane) << shift
    return bits


def _minimal(n, bits):
    """The parts of bits that contain no other part of bits, on one bitset
    or on lanes alike: all but those above a part of its closure."""
    up, above = _close_up(n, bits), 0
    for lane, shift in _lanes(n)[0]:
        above |= (up & lane) << shift
    return bits & ~above


@lru_cache(maxsize=32)
def _terms(labels, unicode):
    """Rendering table for a frame's labels: the union symbol, the
    expression of the empty bitset and of each one-part bitset, per byte of
    a rank-ordered bitset the lookup of its terms as printed inside a union
    of two or more terms, each led by the union symbol ("" for no term), so
    such a row is the entries' concatenation less its leading symbol; then
    the moves of the frame size's _lanes."""
    inter, union, empty = ("∩", "∪", "∅") if unicode else ("&", "|", "{}")
    bare = [inter.join(lab for j, lab in enumerate(labels) if s >> j & 1)
            for s in range(1, 1 << len(labels))]
    paren = [union + (bare[s - 1] if s.bit_count() == 1 else f"({bare[s - 1]})")
             for s in _part_tables(len(labels))[1]]
    singles = dict(zip([0] + [1 << p for p in range(len(bare))], [empty] + bare))
    return (union, singles, [t.__getitem__ for t in _per_byte(paren, "", add)],
            _lanes(len(labels))[1])


_from_bytes = int.from_bytes  # bound once: each int.from_bytes lookup binds the classmethod anew


def _minimal_parts(n, chunk):
    """The minimal parts of each bitset of the array chunk, as its packed
    bytes: LANES bitsets at a time on the lanes of one int."""
    runs = []
    for start in range(0, len(chunk), LANES):
        run = chunk[start:start + LANES]
        runs.append(_minimal(n, _from_bytes(run, sys.byteorder)).to_bytes(8 * len(run), sys.byteorder))
    return b"".join(runs)


def expressions(labels, style, bitsets):
    """Yield each bitset's canonical expression over the frame with these
    labels, style "unicode" or "ascii": the union of the intersections its
    minimal parts name, in (size, mask) rank order. Reads CHUNK bitsets at a
    time and renders each chunk by byte column; see the module docstring."""
    union, singles, joined, moves = _terms(tuple(labels), style == "unicode")
    bitsets = iter(bitsets)
    while raw := _minimal_parts(len(labels), array("Q", islice(bitsets, CHUNK))):
        minimal = list(map(raw.__getitem__, _COLUMNS[:len(joined)]))
        ranked = [0] * len(joined)
        for k, i, table in moves:
            ranked[i] |= _from_bytes(minimal[k].translate(table), "little")
        ranked = map(int.to_bytes, ranked, repeat(len(raw) // 8), repeat("little"))
        rows = reduce(partial(map, add), map(map, joined, ranked))
        yield from map(singles.get, memoryview(raw).cast("Q"),
                       map(getitem, rows, repeat(slice(len(union), None))))


def _overlaps(n):
    """Parts naming two or more hypotheses: all parts but the n singletons."""
    singletons = sum(1 << ((1 << j) - 1) for j in range(n))
    return ((1 << ((1 << n) - 1)) - 1) & ~singletons


@dataclass(frozen=True)
class Frame:
    """Ordered hypotheses theta_1..theta_n, identified by their labels."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) > MAX_FRAME_SIZE:
            raise FrameTooLarge(
                f"frame has {len(labels)} hypotheses, maximum is {MAX_FRAME_SIZE}"
            )
        seen = set()
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise ValueError(f"hypothesis label must be a nonempty string, got {lab!r}")
            if lab in seen:
                raise ValueError(f"duplicate hypothesis label {lab!r}")
            seen.add(lab)

    @property
    def n(self):
        return len(self.labels)

    @property
    def part_count(self):
        return (1 << self.n) - 1

    def atom(self, index):
        """Element for hypothesis theta_index (1-based)."""
        if not 1 <= index <= self.n:
            raise IndexOutOfRange(f"hypothesis index {index} outside 1..{self.n}")
        return LatticeElement(self, _atoms(self.n)[index - 1])

    def atom_by_label(self, label):
        try:
            return self.atom(self.labels.index(label) + 1)
        except ValueError:
            raise IndexOutOfRange(f"unknown hypothesis label {label!r}") from None

    def empty(self):
        return LatticeElement(self, 0)

    def total_ignorance(self):
        """Union of all hypotheses: every part present."""
        if self.n == 0:
            raise EmptyFrame("total ignorance undefined on an empty frame")
        return LatticeElement(self, (1 << self.part_count) - 1)


class _Frozen:
    """Immutable value: slots are set once, bypassing the guard, and copy,
    deepcopy and pickle restore the (None, {slot: value}) state that
    object.__reduce_ex__ gives __setstate__."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class LatticeElement(_Frozen):
    """One lattice element: an upward-closed family of parts over a frame.

    Supports & (meet), | (join), <= (free-lattice containment). Instances
    are immutable and hashable, usable as mass-function keys. bits must be
    an int: the constructor stores it as given.
    """

    __slots__ = ("frame", "bits")

    def __init__(self, frame, bits):
        _set_frame(self, frame)
        _set_bits(self, bits)

    def __eq__(self, other):
        if not isinstance(other, LatticeElement):
            return NotImplemented
        return self.frame == other.frame and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def _check_mate(self, other):
        if not isinstance(other, LatticeElement):
            raise TypeError(f"expected LatticeElement, got {type(other).__name__}")
        if other.frame != self.frame:
            raise FrameMismatch("elements belong to different frames")

    def __and__(self, other):
        self._check_mate(other)
        return LatticeElement(self.frame, self.bits & other.bits)

    def __or__(self, other):
        self._check_mate(other)
        return LatticeElement(self.frame, self.bits | other.bits)

    def __le__(self, other):
        self._check_mate(other)
        return self.bits & ~other.bits == 0

    def intersects(self, other):
        self._check_mate(other)
        return self.bits & other.bits != 0

    @property
    def is_empty(self):
        return self.bits == 0

    def is_upward_closed(self):
        """Consistency check: every superset of a present part is present."""
        return _close_up(self.frame.n, self.bits) == self.bits

    def minimal_parts(self):
        """Antichain of minimal parts, each a subset-mask of hypothesis bits.

        The element equals the union over this antichain of the
        intersections of the hypotheses named in each part.
        """
        bits = _minimal(self.frame.n, self.bits)
        return [s for s in _part_tables(self.frame.n)[1] if bits >> (s - 1) & 1]

    def expr(self, style="unicode"):
        """Canonical expression: union of intersections of minimal parts."""
        return next(expressions(self.frame.labels, style, (self.bits,)))

    def __repr__(self):
        return f"<{self.expr()}>"


_set_frame, _set_bits = LatticeElement.frame.__set__, LatticeElement.bits.__set__  # skip the guard


def _component_union(n, bits):
    """Union of every hypothesis a minimal part of bits names: 0 for 0."""
    minimal = _minimal(n, bits)
    return reduce(or_, [a for a in _atoms(n) if minimal & a], 0)


def component_union(x):
    """Union of every hypothesis appearing in x's canonical form."""
    if x.bits == 0:
        raise EmptyArgument("component union undefined on the empty element")
    return LatticeElement(x.frame, _component_union(x.frame.n, x.bits))


def upward_closure(x):
    """x with every superset of each present part switched on.

    Identity on proper (upward-closed) elements. A reduced representative
    has its dead parts stripped; this restores them, giving back the free
    element with the same minimal parts, so meets behave as they would
    have before reduction.
    """
    return LatticeElement(x.frame, _close_up(x.frame.n, x.bits))


def _inside(width, x):
    """The monotone masks of the given width inside the monotone mask x, in
    increasing order. Bit s of a mask is its value on subset s, so a mask is
    a pair (lo, hi) of half-width ones with lo inside hi; here hi lies inside
    x's high half and lo inside both hi and x's low half."""
    if width <= 1:
        return (0, 1) if x else (0,)
    half = width >> 1
    out = []
    for hi in _inside_memo(half, x >> half):
        shifted = hi << half
        out += [lo | shifted for lo in _inside_memo(half, x & hi)]
    return out


_inside_memo = cache(_inside)  # tables under _free_table's top two levels: under 200


@cache
def _free_table(n):
    """Bitsets of every element over n hypotheses in (part count, bit
    pattern) order, a read-only view of one array('Q') built once per n: the
    monotone masks of width 2**n with the empty subset false, shifted past
    its bit. They stream in increasing order, so each bucket fills sorted."""
    half = 1 << n >> 1
    top = (1 << (1 << n)) - 2  # every subset but the empty one
    buckets = [array("Q") for _ in range(1 << n)]
    for hi in _inside(half, top >> half):
        shifted = hi << half
        for lo in _inside(half, top & hi):
            bits = (lo | shifted) >> 1
            buckets[bits.bit_count()].append(bits)
    table = array("Q")
    for bucket in buckets:
        table += bucket
    return memoryview(table).toreadonly()


@cache
def _alive_filter(n):
    """What alive_bits reads over n hypotheses: the free table, the shifts
    that fold the 2**(n - 3) bytes a part can occupy into a lane's low
    byte, every part, and a one in each lane of a run, as many lanes as the
    first run has."""
    table = _free_table(n)
    ones = _from_bytes(b"\1\0\0\0\0\0\0\0" * min(len(table), LANES), "little")
    return table, (32, 16, 8)[6 - n:], (1 << ((1 << n) - 1)) - 1, ones


_KEEP = bytes([1]) + bytes(255)  # a lane's folded low byte: zero keeps its row


def enumerate_bitsets(n):
    """A fresh list of the bitsets of every lattice element over n
    hypotheses, sorted by (part count, bit pattern): the empty one first."""
    if n > MAX_FRAME_SIZE:
        raise FrameTooLarge(f"enumeration capped at {MAX_FRAME_SIZE} hypotheses")
    return list(_free_table(n))


def enumerate_hyper_power_set(frame):
    """All distinct elements over the frame, empty element first, in
    deterministic (cardinality, bit pattern) order."""
    return [LatticeElement(frame, b) for b in _free_table(frame.n)]


class Model(_Frozen):
    """Interpretation model: which parts of the frame are impossible.

    kind is "free" (nothing empty), "shafer" (every overlap of two or more
    hypotheses empty), or "hybrid" (a stated list of elements forced empty).
    Shafer models accept extra constraints on top of the exclusivity ones.
    """

    __slots__ = ("frame", "kind", "constraints", "emptied")

    def __init__(self, frame, kind, constraints=()):
        if kind not in ("free", "shafer", "hybrid"):
            raise ValueError(f"unknown model kind {kind!r}")
        constraints = tuple(constraints)
        emptied = _overlaps(frame.n) if kind == "shafer" else 0
        for c in constraints:
            if c.frame != frame:
                raise FrameMismatch("constraint element belongs to a different frame")
            emptied |= c.bits
        for name, value in zip(self.__slots__, (frame, kind, constraints, emptied)):
            object.__setattr__(self, name, value)

    @classmethod
    def free(cls, frame):
        return cls(frame, "free")

    @classmethod
    def shafer(cls, frame, constraints=()):
        return cls(frame, "shafer", constraints)

    @classmethod
    def hybrid(cls, frame, constraints):
        return cls(frame, "hybrid", constraints)

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return (self.frame, self.kind, self.emptied) == (other.frame, other.kind, other.emptied)

    def __hash__(self):
        return hash((self.frame, self.kind, self.emptied))

    def __repr__(self):
        return f"Model({self.kind}, frame={self.frame.labels}, dead_parts={self.emptied:#x})"

    def reduce(self, x):
        """x with its impossible parts cleared."""
        if x.frame != self.frame:
            raise FrameMismatch("element belongs to a different frame")
        return LatticeElement(self.frame, x.bits & ~self.emptied)

    def is_model_empty(self, x):
        return self.reduce(x).bits == 0

    def same_element(self, x, y):
        return self.reduce(x).bits == self.reduce(y).bits

    def is_degenerate(self):
        """True when the model empties even total ignorance."""
        if self.frame.n == 0:
            return True
        return self.is_model_empty(self.frame.total_ignorance())

    def check_not_degenerate(self):
        if self.is_degenerate():
            raise DegenerateModel("model empties the whole frame")

    def is_shafer_compatible(self):
        """True when every overlap of two or more hypotheses is empty."""
        return _overlaps(self.frame.n) & ~self.emptied == 0

    def alive_bits(self):
        """Distinct reduced bitsets, empty first, in the order they first occur
        in the free table: that table itself (63 MB at n = 6) if none is emptied.

        A row U of the free table is the first with its reduction U & alive
        exactly when U is the upward closure of U & alive: that closure is
        the smallest free element with the reduction, and every other one
        strictly contains it (see the module docstring). LANES rows at a
        time on 64-bit lanes, the rows passing that test give their
        reductions."""
        if not self.emptied:
            return _free_table(self.frame.n)
        n = self.frame.n
        table, folds, full, ones = _alive_filter(n)
        alive = (full & ~self.emptied) * ones
        out = array("Q")
        for start in range(0, len(table), LANES):
            run = table[start:start + LANES]
            size = 8 * len(run)
            rows = _from_bytes(run, sys.byteorder)
            reduced = rows & alive
            later = _close_up(n, reduced) ^ rows  # nonzero on each lane whose row is not the closure
            for shift in folds:
                later |= later >> shift
            keep = later.to_bytes(size, sys.byteorder)[_COLUMNS[0]].translate(_KEEP)
            if 1 in keep:  # most runs of a model with few alive parts keep no row
                out.extend(compress(memoryview(reduced.to_bytes(size, sys.byteorder)).cast("Q"), keep))
        return out

    def iter_alive_elements(self):
        """Iterator over the distinct reduced elements, in alive_bits order."""
        return map(partial(LatticeElement, self.frame), self.alive_bits())

    def alive_elements(self, as_bits=False):
        """Distinct reduced elements, deterministic order, empty first; with
        as_bits, their bitsets (alive_bits) and no element built."""
        if as_bits:
            return self.alive_bits()
        return list(self.iter_alive_elements())


def exclusivity(frame, i, j):
    """Constraint element stating hypotheses i and j cannot overlap."""
    return frame.atom(i) & frame.atom(j)


def canonical_form(model, x):
    """Canonical expression of x after model reduction."""
    return model.reduce(x).expr()


def dsm_cardinality(model, x):
    """Number of parts of x that the model keeps alive."""
    return model.reduce(x).bits.bit_count()


def total_ignorance(frame):
    return frame.total_ignorance()
