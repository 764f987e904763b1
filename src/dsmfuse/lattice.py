"""Frames, lattice elements, and interpretation models.

A frame is a finite list of hypotheses. The elements built from those
hypotheses with union and intersection form a finite distributive lattice;
each element is stored as the set of Venn regions ("parts") it covers,
packed into an int bitset. A part is a nonempty subset of hypothesis
indices, encoded as subset-mask s with bitset bit (s - 1), so meet and join
are plain bitwise AND and OR. With at most 6 hypotheses there are at most
63 parts and every element fits a machine word.

A Model declares which parts are impossible (empty). Reducing an element
under a model clears its dead parts; two elements are equal under the model
when their reduced bitsets are equal.
"""

from dataclasses import dataclass

from .errors import (
    DegenerateModel,
    EmptyArgument,
    EmptyFrame,
    FrameMismatch,
    FrameTooLarge,
    IndexOutOfRange,
)

MAX_FRAME_SIZE = 6


def _popcount(x):
    return x.bit_count()


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
        bit = 1 << (index - 1)
        bits = 0
        for s in range(1, 1 << self.n):
            if s & bit:
                bits |= 1 << (s - 1)
        return LatticeElement(self, bits)

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


class LatticeElement:
    """One lattice element: an upward-closed family of parts over a frame.

    Supports & (meet), | (join), <= (free-lattice containment). Instances
    are immutable and hashable, usable as mass-function keys.
    """

    __slots__ = ("frame", "bits")

    def __init__(self, frame, bits):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "bits", int(bits))

    def __setattr__(self, name, value):
        raise AttributeError("LatticeElement is immutable")

    def __eq__(self, other):
        if not isinstance(other, LatticeElement):
            return NotImplemented
        return self.frame == other.frame and self.bits == other.bits

    def __hash__(self):
        return hash((self.frame, self.bits))

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
        n = self.frame.n
        for s in range(1, 1 << n):
            if not self.bits >> (s - 1) & 1:
                continue
            for j in range(n):
                t = s | (1 << j)
                if t != s and not self.bits >> (t - 1) & 1:
                    return False
        return True

    def minimal_parts(self):
        """Antichain of minimal parts, each a subset-mask of hypothesis bits.

        The element equals the union over this antichain of the
        intersections of the hypotheses named in each part.
        """
        present = [s for s in range(1, 1 << self.frame.n) if self.bits >> (s - 1) & 1]
        minimal = []
        for s in present:
            if not any(t != s and t & ~s == 0 for t in present):
                minimal.append(s)
        minimal.sort(key=lambda s: (_popcount(s), s))
        return minimal

    def expr(self, style="unicode"):
        """Canonical expression: union of intersections of minimal parts."""
        inter, union, empty = ("∩", "∪", "∅") if style == "unicode" else ("&", "|", "{}")
        if self.bits == 0:
            return empty
        terms = []
        groups = self.minimal_parts()
        for s in groups:
            labs = [self.frame.labels[j] for j in range(self.frame.n) if s >> j & 1]
            term = inter.join(labs)
            if len(labs) > 1 and len(groups) > 1:
                term = "(" + term + ")"
            terms.append(term)
        return union.join(terms)

    def __repr__(self):
        return f"<{self.expr()}>"


def component_union(x):
    """Union of every hypothesis appearing in x's canonical form."""
    if x.bits == 0:
        raise EmptyArgument("component union undefined on the empty element")
    mask = 0
    for s in x.minimal_parts():
        mask |= s
    out = x.frame.empty()
    for j in range(x.frame.n):
        if mask >> j & 1:
            out = out | x.frame.atom(j + 1)
    return out


def upward_closure(x):
    """x with every superset of each present part switched on.

    Identity on proper (upward-closed) elements. A reduced representative
    has its dead parts stripped; this restores them, giving back the free
    element with the same minimal parts, so meets behave as they would
    have before reduction.
    """
    universe = (1 << x.frame.n) - 1
    out = x.bits
    bits = x.bits
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
    return LatticeElement(x.frame, out)


def _monotone_masks(n):
    """Bitmasks of all monotone 0/1 functions on subsets of an n-element set.

    Built by the doubling recurrence: a monotone function on n+1 generators
    is an ordered pair (low, high) of monotone functions on n generators
    with low pointwise below high.
    """
    masks = [0, 1]
    width = 1
    for step in range(n):
        if len(masks) >= 1000 and step == n - 1:
            masks = _monotone_pairs_vectorized(masks, width)
        else:
            masks = [lo | (hi << width) for hi in masks for lo in masks if lo & ~hi == 0]
        width <<= 1
    return masks

def _monotone_pairs_vectorized(masks, width):
    import numpy as np

    arr = np.array(masks, dtype=np.uint64)
    full = np.uint64((1 << width) - 1)
    shift = np.uint64(width)
    out = []
    for hi in masks:
        comp = np.uint64(hi) ^ full
        lows = arr[(arr & comp) == 0]
        out.append(lows | (np.uint64(hi) << shift))
    return [int(v) for chunk in out for v in chunk]


def enumerate_bitsets(n):
    """Bitsets of every lattice element over n hypotheses, sorted by
    (part count, bit pattern). The empty element comes first."""
    if n > MAX_FRAME_SIZE:
        raise FrameTooLarge(f"enumeration capped at {MAX_FRAME_SIZE} hypotheses")
    # Drop the single function that marks the empty part (it forces all
    # parts present), then shift the empty-part bit away.
    bitsets = [h >> 1 for h in _monotone_masks(n) if not h & 1]
    bitsets.sort(key=lambda b: (_popcount(b), b))
    return bitsets


def enumerate_hyper_power_set(frame):
    """All distinct elements over the frame, empty element first, in
    deterministic (cardinality, bit pattern) order."""
    return [LatticeElement(frame, b) for b in enumerate_bitsets(frame.n)]


class Model:
    """Interpretation model: which parts of the frame are impossible.

    kind is "free" (nothing empty), "shafer" (every overlap of two or more
    hypotheses empty), or "hybrid" (a stated list of elements forced empty).
    Shafer models accept extra constraints on top of the exclusivity ones.
    """

    __slots__ = ("frame", "kind", "constraints", "emptied")

    def __init__(self, frame, kind, constraints=()):
        if kind not in ("free", "shafer", "hybrid"):
            raise ValueError(f"unknown model kind {kind!r}")
        self.frame = frame
        self.kind = kind
        self.constraints = tuple(constraints)
        emptied = 0
        for c in self.constraints:
            if c.frame != frame:
                raise FrameMismatch("constraint element belongs to a different frame")
            emptied |= c.bits
        if kind == "shafer":
            for s in range(1, 1 << frame.n):
                if _popcount(s) >= 2:
                    emptied |= 1 << (s - 1)
        self.emptied = emptied

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
        for s in range(1, 1 << self.frame.n):
            if _popcount(s) >= 2 and not self.emptied >> (s - 1) & 1:
                return False
        return True

    def iter_alive_elements(self):
        """Yield distinct reduced elements, deterministic order, empty first.

        Streams one element at a time; the six-hypothesis lattice has
        7,828,353 of them and listings must not hold them all at once.
        """
        if self.emptied == 0:
            # nothing to reduce, so the free enumeration is already distinct
            for b in enumerate_bitsets(self.frame.n):
                yield LatticeElement(self.frame, b)
            return
        seen = set()
        for b in enumerate_bitsets(self.frame.n):
            r = b & ~self.emptied
            if r not in seen:
                seen.add(r)
                yield LatticeElement(self.frame, r)

    def alive_elements(self):
        """Distinct reduced elements, deterministic order, empty first."""
        return list(self.iter_alive_elements())


def exclusivity(frame, i, j):
    """Constraint element stating hypotheses i and j cannot overlap."""
    return frame.atom(i) & frame.atom(j)


def canonical_form(model, x):
    """Canonical expression of x after model reduction."""
    return model.reduce(x).expr()


def dsm_cardinality(model, x):
    """Number of parts of x that the model keeps alive."""
    return _popcount(model.reduce(x).bits)


def total_ignorance(frame):
    return frame.total_ignorance()
