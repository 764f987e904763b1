"""Mass functions, precise and imprecise, plus subunitary set arithmetic.

A precise mass maps lattice elements to reals summing to 1. An imprecise
mass maps elements to subunitary sets: finite unions of points and
intervals inside [0, 1]. The three set operators used by the imprecise
rules are pointwise images: + (Minkowski sum), - (every difference of a
left point and a right point), * (every product). A result endpoint is
closed exactly when some pair of operand endpoints attaining it is
closed-closed, with one refinement: a zero product is attained as soon as
either operand attains zero.

Endpoints are plain floats. Point-valued sets therefore run the same float
operations as the precise rules, which keeps the imprecise rules an exact
superset of the precise ones.

Endpoints are ordered by value, then closedness: a start (lower end) is
keyed (value, not closed) and an end (value, closed). A piece is nonempty
when its start key is below its end key, sorted pieces touch when one's end
key is not below the next one's start key, a union keeps the max end and an
intersection the max start and min end. Closedness is read from the keys and
values from plain max and min, which keeps signed zeros where they were.

The arithmetic runs on plain piece tuples, which a set wraps once; they
are not validated again: the piece rules are monotone in each endpoint, so
pieces in order give a piece in order, and a piece that collapses to one
value still becomes a closed point. + and * against a one-piece set skip
the merge's sort: their images come out with lower ends in order and
coalesce in one pass (two one-piece sets, every point-with-point step of
the imprecise rules, give one piece and no pass). - is antitone in its
right operand, so it, like + and * on two sets of several pieces, merges.
"""

import re
from collections import namedtuple
from functools import partial, reduce
from operator import add

from .errors import (
    EmptyOperand,
    FrameMismatch,
    ParseError,
    SelectionOutsideSet,
    ValidationError,
    ZeroTotalMass,
)
from .lattice import _Frozen

DEFAULT_TOL = 1e-9


class Piece(namedtuple("Piece", "lower upper lower_closed upper_closed")):
    """One maximal run of a subunitary set: an interval or a point.

    A validated named tuple: it unpacks, indexes and compares as the 4-tuple
    (lower, upper, lower_closed, upper_closed). Bounds are cast to float and
    must be in order, flags to bool; a degenerate piece is a closed point.
    """

    __slots__ = ()

    def __new__(cls, lower, upper, lower_closed=True, upper_closed=True):
        lower, upper = float(lower), float(upper)
        if lower > upper:
            raise ValueError(f"piece bounds out of order: {lower} > {upper}")
        if lower == upper:
            # A degenerate interval that is attained is a point; the
            # arithmetic below never produces an unattained one.
            lower_closed = upper_closed = True
        return tuple.__new__(cls, (lower, upper, bool(lower_closed), bool(upper_closed)))

    @classmethod
    def _make(cls, iterable):
        """The named tuple's builder, validated like Piece(...); _replace
        builds through it too."""
        return cls(*iterable)

    @property
    def is_point(self):
        return self.lower == self.upper

    def contains(self, x, tol=DEFAULT_TOL):
        lo_ok = x >= self.lower - tol if self.lower_closed else x > self.lower
        up_ok = x <= self.upper + tol if self.upper_closed else x < self.upper
        return lo_ok and up_ok


def _merge(pieces):
    """Coalesce overlapping or touching pieces, in any order, into maximal runs."""
    pieces = sorted(pieces, key=lambda p: (p[0], not p[2], p[1]))
    if not pieces:
        raise EmptyOperand("subunitary set needs at least one piece")
    return _coalesce(pieces)


def _coalesce(pieces):
    """Coalesce nonempty pieces whose lower ends never decrease into maximal
    runs (plain tuples), as the merge does after its sort. That sort puts a
    closed start first, so a closed piece starting where an open run does
    closes the run, which may then join the run before it."""
    out = []
    lo, up, lc, uc = pieces[0]
    for a, b, ac, bc in pieces[1:]:
        if up > a or up == a and (uc or ac):
            if b > up:
                up, uc = b, bc
            elif b == up and bc:
                uc = True
            if a == lo and ac and not lc:
                lo, lc = a, True
                if out and out[-1][1] == a:
                    lo, _, lc, _ = out.pop()
        else:
            out.append((lo, up, lc, uc))
            lo, up, lc, uc = a, b, ac, bc
    out.append((lo, up, lc, uc))
    return out


class SubunitarySet(_Frozen):
    """Finite union of disjoint points and intervals, kept sorted/merged."""

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        # a plain tuple is checked as Piece checks it; a Piece already is
        pieces = _merge(p if isinstance(p, Piece) else Piece(*p) for p in pieces)
        _set_pieces(self, tuple(map(_piece, pieces)))

    @classmethod
    def point(cls, x):
        x = float(x)
        return _of(((x, x, True, True),))

    @classmethod
    def interval(cls, lower, upper, lower_closed=True, upper_closed=True):
        return cls([Piece(lower, upper, lower_closed, upper_closed)])

    @property
    def inf(self):
        return self.pieces[0].lower

    @property
    def sup(self):
        return self.pieces[-1].upper

    @property
    def is_point(self):
        return len(self.pieces) == 1 and self.pieces[0].is_point

    def as_point(self):
        if not self.is_point:
            raise ValueError(f"{self} is not a single point")
        return self.pieces[0].lower

    def contains(self, x, tol=DEFAULT_TOL):
        return any(p.contains(x, tol) for p in self.pieces)

    def within_unit(self, tol=DEFAULT_TOL):
        return self.inf >= -tol and self.sup <= 1 + tol

    def __add__(self, other):
        return _of(_set_sum(self.pieces, other.pieces))

    def __sub__(self, other):
        return _of(_merge([_piece_sub(p, q) for p in self.pieces for q in other.pieces]))

    def __mul__(self, other):
        if self.inf < 0 or other.inf < 0:
            raise ValueError("product defined for nonnegative sets only")
        return _of(_set_product(self.pieces, other.pieces))

    def clamp01(self):
        """Pointwise image under min(1, max(0, .)): a clamped end is attained."""
        return SubunitarySet([
            Piece(min(max(lo, 0.0), 1.0), min(max(up, 0.0), 1.0), lc or lo < 0, uc or up > 1)
            for lo, up, lc, uc in self.pieces
        ])

    def intersection(self, other):
        """Set intersection, or None when disjoint."""
        out = []
        for a in self.pieces:
            for b in other.pieces:
                start = max((a.lower, not a.lower_closed), (b.lower, not b.lower_closed))
                end = min((a.upper, a.upper_closed), (b.upper, b.upper_closed))
                if start < end:
                    out.append(Piece(max(a.lower, b.lower), min(a.upper, b.upper),
                                     not start[1], end[1]))
        return SubunitarySet(out) if out else None

    def approx_equal(self, other, tol=1e-6):
        return len(self.pieces) == len(other.pieces) and not any(
            a[2:] != b[2:] or abs(a.lower - b.lower) > tol or abs(a.upper - b.upper) > tol
            for a, b in zip(self.pieces, other.pieces)
        )

    def __eq__(self, other):
        if not isinstance(other, SubunitarySet):
            return NotImplemented
        return self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        return format_set(self)


_set_pieces = SubunitarySet.pieces.__set__
_piece = partial(tuple.__new__, Piece)  # a Piece from a piece tuple, unchecked


def _of(pieces):
    """The set of sorted and merged piece tuples, without the merge."""
    s = object.__new__(SubunitarySet)
    _set_pieces(s, tuple(map(_piece, pieces)))
    return s


# The piece rules, on (lower, upper, lower_closed, upper_closed) tuples:
# endpoints in order in, endpoints in order out, and a piece that collapses
# to one value is a closed point, as in Piece.

def _piece_add(a, b):
    lo, up = a[0] + b[0], a[1] + b[1]
    return (lo, up, True, True) if lo == up else (lo, up, a[2] and b[2], a[3] and b[3])


def _piece_sub(a, b):
    lo, up = a[0] - b[1], a[1] - b[0]
    return (lo, up, True, True) if lo == up else (lo, up, a[2] and b[3], a[3] and b[2])


def _piece_mul(a, b):
    lo, up, closed = a[0] * b[0], a[1] * b[1], a[2] and b[2]
    if lo == 0.0 and not closed:
        # Zero is attained as soon as either factor attains it.
        closed = (a[0] == 0.0 and a[2]) or (b[0] == 0.0 and b[2])
    return (lo, up, True, True) if lo == up else (lo, up, closed, a[3] and b[3])


def _images(op, a, b):
    """The pieces of a op b, for sorted and merged piece tuples a and b and
    op a piece rule monotone in both operands (+, or * when nonnegative):
    against one piece the images come out with lower ends in order and
    coalesce in one pass; two sets of several pieces go through the merge."""
    if len(b) == 1:
        q = b[0]
        return (op(a[0], q),) if len(a) == 1 else _coalesce([op(p, q) for p in a])
    if len(a) == 1:
        p = a[0]
        return _coalesce([op(p, q) for q in b])
    return _merge([op(p, q) for p in a for q in b])


# The sum and the product on the piece tuples of sets; the product is for
# nonnegative sets only.
_set_sum = partial(_images, _piece_add)
_set_product = partial(_images, _piece_mul)


def sum_sets(sets):
    sets = list(sets)
    if not sets:
        raise EmptyOperand("nothing to sum")
    return reduce(add, sets)


# --- text form ---------------------------------------------------------------

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_INTERVAL_RE = re.compile(rf"([\[\(])\s*({_NUM})\s*,\s*({_NUM})\s*([\]\)])")
_POINT_RE = re.compile(rf"({_NUM})")
_JOIN_RE = re.compile(r"\s*[uU∪]\s*")


def parse_set(text):
    """Parse the union-of-pieces syntax, e.g. "[0.1,0.2]u{0.3}" or "0.5".

    Pieces are intervals with [ ] (closed) or ( ) (open) ends, brace lists
    of points, or bare numbers; they are joined with "u" (or the union
    sign). Case of the joiner does not matter.
    """
    parts = _JOIN_RE.split(text.strip())
    pieces = []
    for part in parts:
        part = part.strip()
        if not part:
            raise ParseError(f"empty piece in set {text!r}")
        m = _INTERVAL_RE.fullmatch(part)
        if m:
            try:
                lower, upper = float(m.group(2)), float(m.group(3))
                if lower == upper and m.group(1) + m.group(4) != "[]":
                    raise ValueError(f"interval {part} is empty")
                piece = Piece(lower, upper, m.group(1) == "[", m.group(4) == "]")
            except ValueError as exc:
                raise ParseError(f"bad set {text!r}: {exc}") from None
            pieces.append(piece)
            continue
        if part.startswith("{") and part.endswith("}"):
            inner = part[1:-1]
            for num in inner.split(","):
                num = num.strip()
                if not _POINT_RE.fullmatch(num):
                    raise ParseError(f"bad point {num!r} in set {text!r}")
                x = float(num)
                pieces.append(Piece(x, x))
            continue
        if _POINT_RE.fullmatch(part):
            x = float(part)
            pieces.append(Piece(x, x))
            continue
        raise ParseError(f"cannot parse set piece {part!r}")
    return SubunitarySet(pieces)


def _fmt_num(x, precision):
    if precision is None:
        return repr(x)  # shortest text that parses back to the same float
    return f"{x:.{precision}f}"


def format_set(s, precision=None, style="ascii"):
    """Render a set in the same syntax parse_set accepts.

    Runs of adjacent points share one brace group, matching the usual
    written form {a,b}.
    """
    joiner = "u" if style == "ascii" else "∪"
    chunks = []
    run = []
    for p in list(s.pieces) + [None]:
        if p is not None and p.is_point:
            run.append(p)
            continue
        if run:
            chunks.append("{" + ",".join(_fmt_num(q.lower, precision) for q in run) + "}")
            run = []
        if p is not None:
            lo = "[" if p.lower_closed else "("
            up = "]" if p.upper_closed else ")"
            chunks.append(f"{lo}{_fmt_num(p.lower, precision)},{_fmt_num(p.upper, precision)}{up}")
    return joiner.join(chunks)


# --- mass functions ----------------------------------------------------------

class _MassBase(_Frozen):
    """Focal elements to values of one kind, which gives validate, _zero
    (the mass off the focal elements) and _text (a value in the repr)."""

    __slots__ = ("frame", "_masses", "allows_empty_focal")

    def __init__(self, frame, masses, allows_empty_focal=False):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "allows_empty_focal", allows_empty_focal)
        store = {}
        for el, value in masses.items():
            if el.frame is not frame and el.frame != frame:
                raise FrameMismatch("focal element belongs to a different frame")
            store[el.bits.bit_count(), el.bits] = el, value
        object.__setattr__(self, "_masses", dict(map(store.__getitem__, sorted(store))))

    def mass(self, element):
        return self._masses.get(element, self._zero)

    def items(self):
        return list(self._masses.items())

    def elements(self):
        return list(self._masses.keys())

    def __len__(self):
        return len(self._masses)

    def __contains__(self, element):
        return element in self._masses

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.frame == other.frame
                and self._masses == other._masses
                and self.allows_empty_focal == other.allows_empty_focal)

    def __hash__(self):
        return hash((type(self).__name__, self.frame, tuple(self._masses.items())))

    def check(self, tol=DEFAULT_TOL):
        problems = self.validate(tol)
        if problems:
            raise ValidationError(problems)
        return self

    def __repr__(self):
        inner = ", ".join(f"{el.expr()}: {self._text(v)}" for el, v in self._masses.items())
        return f"{type(self).__name__}({{{inner}}})"


class PreciseMass(_MassBase):
    """Mass function with one real per focal element."""

    _zero = 0.0
    _text = staticmethod(lambda v: f"{float(v):g}")

    @classmethod
    def vacuous(cls, frame):
        return cls(frame, {frame.total_ignorance(): 1.0})

    def total(self):
        return sum(self._masses.values())

    def validate(self, tol=DEFAULT_TOL):
        """List of problems; empty when the mass is a well-formed gbba."""
        problems = []
        for el, v in self._masses.items():
            if v != v:
                problems.append(f"mass {v} on {el.expr()} is not a number")
            if v < -tol:
                problems.append(f"negative mass {v} on {el.expr()}")
            if el.bits == 0 and v > tol and not self.allows_empty_focal:
                problems.append(f"mass {v} on the empty element")
        t = self.total()
        if abs(t - 1.0) > tol:
            problems.append(f"total mass {t} differs from 1")
        return problems

    def normalize(self):
        t = self.total()
        if abs(t) < 1e-15:
            raise ZeroTotalMass("mass sums to zero")
        return PreciseMass(
            self.frame,
            {el: v / t for el, v in self._masses.items()},
            self.allows_empty_focal,
        )


class ImpreciseMass(_MassBase):
    """Mass function with one subunitary set per focal element."""

    _zero = SubunitarySet.point(0.0)
    _text = staticmethod(format_set)

    def validate(self, tol=DEFAULT_TOL):
        problems = []
        for el, s in self._masses.items():
            if not isinstance(s, SubunitarySet):
                problems.append(f"value on {el.expr()} is not a set")
                continue
            # No tolerance below 0: the rules multiply the sets, and the
            # product is defined for nonnegative sets only.
            if s.inf < 0 or not s.within_unit(tol):
                problems.append(f"set on {el.expr()} leaves [0,1]: {format_set(s)}")
            if el.bits == 0 and not self.allows_empty_focal and not s.contains(0.0, tol):
                problems.append(f"empty element carries nonzero set {format_set(s)}")
        return problems


def lift(m):
    """Precise mass viewed as an imprecise one with point sets."""
    return ImpreciseMass(
        m.frame,
        {el: SubunitarySet.point(v) for el, v in m.items()},
        m.allows_empty_focal,
    )


def to_precise(mi, selection, tol=DEFAULT_TOL):
    """Pick one point per focal set; raises when a pick misses its set."""
    out = {}
    for el, s in mi.items():
        if el not in selection:
            raise SelectionOutsideSet(f"no selection for {el.expr()}")
        x = selection[el]
        if not s.contains(x, tol):
            raise SelectionOutsideSet(f"{x} not in {format_set(s)} for {el.expr()}")
        out[el] = x
    return PreciseMass(mi.frame, out, mi.allows_empty_focal)


def is_admissible(mi, tol=DEFAULT_TOL):
    """True when one point per focal set can sum to exactly 1."""
    sets = [s for _, s in mi.items()]
    if not sets:
        return False
    return sum_sets(sets).contains(1.0, tol)


def admissibility_witness(mi, tol=DEFAULT_TOL):
    """A selection proving admissibility, or None.

    Works backwards over the focal elements: at each step the remaining
    target is intersected with what the earlier prefix can still reach, so
    any point picked there extends to a full witness.
    """
    entries = mi.items()
    if not entries:
        return None
    prefix = [SubunitarySet.point(0.0)]
    for _, s in entries:
        prefix.append(prefix[-1] + s)
    if not prefix[-1].contains(1.0, tol):
        return None
    for snap in (True, False):
        witness = _witness_pass(entries, prefix, tol, snap)
        if witness is not None and abs(sum(witness.values()) - 1.0) <= tol * 4 * len(entries):
            return witness
    return None


def _witness_pass(entries, prefix, tol, snap):
    witness = {}
    target = 1.0
    # Snapping picks to clean endpoints drifts the target a little, so the
    # window widens with the number of focal elements.
    slack = tol * (len(entries) + 1)
    for j in range(len(entries) - 1, -1, -1):
        el, s = entries[j]
        window = SubunitarySet.interval(target - slack, target + slack)
        candidates = s.intersection(window - prefix[j])
        if candidates is None:
            return None
        witness[el] = _pick_point(candidates, s if snap else None, slack)
        target -= witness[el]
    return witness


def _pick_point(candidates, original, slack):
    p = candidates.pieces[0]
    if p.is_point or p.lower_closed:
        x = p.lower
    elif p.upper_closed:
        x = p.upper
    else:
        x = (p.lower + p.upper) / 2.0
    if original is None:
        return x
    # Prefer an attained endpoint of the original set when one sits within
    # the window; picks like 0.499999999 become 0.5.
    for q in original.pieces:
        for bound, closed in ((q.lower, q.lower_closed), (q.upper, q.upper_closed)):
            if closed and abs(x - bound) <= 2 * slack and candidates.contains(bound, 2 * slack):
                return bound
    return x
