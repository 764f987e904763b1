"""Output checks for benchmark requests.

`Checker.check(request, rc, out, err)` returns None when the output is right
and a one-line reason when it is not; it never raises. A request whose
output hashes the same as one already judged gets the same verdict, so the
timed loop pays a hash per request, not a full check.

- golden requests: the output equals the golden file byte for byte;
- lattice listings: the row count matches an independent count, and the
  SHA-256 digest matches the stored reference (reference seed) or the
  first answer to the same request in this run (other seeds);
- fuse requests (JSON, full precision): on the reference seed, exit code
  and every mass and conflict within MASS_TOL of the stored reference; on
  every seed, invariants: precise masses sum to 1 and conflict lies in
  [0, 1], bel <= pl, each fused triple is normalized, imprecise masses
  can still sum to 1. dempster's TotalConflict (exit 3) is a correct
  answer.
"""

import hashlib
import json
import math
import re

MASS_TOL = 1e-9
# The program's exit code for a rule error such as dempster's TotalConflict.
EXIT_RULE = 3

_NUM = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def set_bounds(text):
    """(inf, sup) of a set written in the program's union-of-pieces syntax."""
    nums = [float(x) for x in _NUM.findall(text)]
    if not nums:
        raise ValueError(f"not a set: {text!r}")
    return min(nums), max(nums)


def set_numbers(text):
    """Shape (brackets and braces) and numbers of a set, for comparison."""
    shape = _NUM.sub("#", text)
    return shape, [float(x) for x in _NUM.findall(text)]


def _close(a, b):
    return abs(a - b) <= MASS_TOL


def _same_value(got, want):
    if isinstance(want, (int, float)):
        return isinstance(got, (int, float)) and _close(got, want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _close(g, w) for g, w in zip(got, want))
    if isinstance(want, str):
        if not isinstance(got, str):
            return False
        (gs, gn), (ws, wn) = set_numbers(got), set_numbers(want)
        return gs == ws and all(_close(g, w) for g, w in zip(gn, wn))
    return got == want


def compare_reference(doc, want):
    """Reason the fused report differs from the reference, or None."""
    tasks = doc.get("tasks", [])
    if len(tasks) != len(want):
        return f"{len(tasks)} tasks, reference has {len(want)}"
    for got, ref in zip(tasks, want):
        if got.get("rule") != ref["rule"]:
            return f"rule {got.get('rule')!r}, reference {ref['rule']!r}"
        if set(got.get("mass", {})) != set(ref["mass"]):
            return f"{ref['rule']}: focal elements differ from the reference"
        for key, value in ref["mass"].items():
            if not _same_value(got["mass"][key], value):
                return f"{ref['rule']}: mass of {key} is {got['mass'][key]}, reference {value}"
        if not _same_value(got.get("conflict"), ref["conflict"]):
            return f"{ref['rule']}: conflict {got.get('conflict')}, reference {ref['conflict']}"
    return None


def reference_entry(doc):
    """What the reference keeps of a fuse report: rule, masses, conflict."""
    return [{"rule": t["rule"], "mass": t["mass"], "conflict": t["conflict"]}
            for t in doc["tasks"]]


def invariants(doc):
    """Reason a fuse report breaks an invariant, or None."""
    tasks = doc.get("tasks")
    if not tasks:
        return "report has no tasks"
    for t in tasks:
        rule = t.get("rule", "?")
        if "error" in t:
            return f"{rule}: {t['error']}"
        values = list(t["mass"].values())
        conflict = t["conflict"]
        if all(isinstance(v, (int, float)) for v in values):
            if not -MASS_TOL <= conflict <= 1 + MASS_TOL:
                return f"{rule}: conflict {conflict} outside [0, 1]"
            if not math.isclose(sum(values), 1.0, abs_tol=MASS_TOL):
                return f"{rule}: masses sum to {sum(values)}"
        elif all(isinstance(v, list) for v in values):
            if conflict < -MASS_TOL:
                return f"{rule}: negative conflict {conflict}"
            for key, trip in t["mass"].items():
                if len(trip) != 3 or not math.isclose(sum(trip), 1.0, abs_tol=MASS_TOL):
                    return f"{rule}: triple on {key} is not normalized: {trip}"
        else:
            bounds = [set_bounds(v) for v in values]
            lo, hi = sum(b[0] for b in bounds), sum(b[1] for b in bounds)
            if not lo - MASS_TOL <= 1.0 <= hi + MASS_TOL:
                return f"{rule}: masses span [{lo}, {hi}], which misses 1"
            if set_bounds(conflict)[0] < -MASS_TOL:
                return f"{rule}: negative conflict {conflict}"
        for key, b in t.get("bel", {}).items():
            if b > t["pl"][key] + MASS_TOL:
                return f"{rule}: bel {b} > pl {t['pl'][key]} on {key}"
        if "pignistic" in t and t["decision"]["choice"] not in t["pignistic"]:
            return f"{rule}: decision {t['decision']['choice']!r} is not an element"
    return None


def listing_rows(fmt, out):
    """Rows a lattice listing reports, after checking it is self-consistent."""
    if fmt == "json":
        doc = json.loads(out)
        if doc["count"] != len(doc["elements"]):
            raise ValueError("count disagrees with the element list")
        return doc["count"]
    lines = out.splitlines()
    footer = re.fullmatch(r"(\d+) elements", lines[-1])
    if not footer or int(footer.group(1)) != len(lines) - 2:
        raise ValueError("footer disagrees with the rows")
    return len(lines) - 2


class Checker:
    """Judges outputs; holds goldens, the reference and digests seen so far."""

    def __init__(self, goldens, reference=None):
        self.goldens = goldens          # name -> golden bytes
        self.reference = reference      # rid -> entry, on the reference seed only
        self.first_digest = {}          # rid -> digest of the first answer
        self.verdicts = {}              # (rid, rc, digest, stderr) -> reason or None

    def check(self, req, rc, out, err):
        key = (req.rid, rc, digest(out), err)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self._judge(req, rc, out, err, key[2])
            except Exception as exc:  # a malformed output is a failed request
                self.verdicts[key] = f"unreadable output: {type(exc).__name__}: {exc}"
        return self.verdicts[key]

    def _judge(self, req, rc, out, err, dig):
        ref = self.reference.get(req.rid) if self.reference is not None else None
        if self.reference is not None and ref is None:
            return "request missing from the reference"
        if req.kind == "golden":
            if rc != 0:
                return f"exit code {rc}"
            same = out.encode("utf-8") == self.goldens[req.golden]
            return None if same else "output differs from the golden"
        if req.kind == "listing":
            if rc != 0:
                return f"exit code {rc}"
            rows = listing_rows(req.listing["format"], out)
            if rows != req.listing["rows"]:
                return f"{rows} rows, expected {req.listing['rows']}"
            want = ref["sha256"] if ref is not None else self.first_digest.setdefault(req.rid, dig)
            return None if dig == want else "listing digest differs"
        if ref is not None and rc != ref["rc"]:
            return f"exit code {rc}, reference {ref['rc']}"
        if rc == EXIT_RULE and req.rule == "dempster" and "TotalConflict" in err:
            return None
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:120]}"
        doc = json.loads(out)
        if ref is not None:
            reason = compare_reference(doc, ref["tasks"])
            if reason:
                return reason
        return invariants(doc)
