"""Line configurations, their singular points, and multiplicity spectra.

A CoordArrangement holds actual coordinates; an IncidenceStructure records
which lines pass through which singular points; a Spectrum only counts how
many points have each multiplicity.  All three levels stay exact.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .errors import EmptyResult, IdentityViolation, NegarrError
from .fields import RationalField, prime_power
from .projective import ProjPoint

KEEP_ORIGINAL_POINTS = "keep_original_points"
RESTRICT_TO_NEW_SINGULAR = "restrict_to_new_singular"


def _distinct_over_one_field(items, kind: str, empty: Exception) -> tuple:
    """The items as a tuple, checked nonempty (else raise empty), over one
    field and pairwise distinct; kind ("points" or "lines") names them."""
    items = tuple(items)
    if not items:
        raise empty
    field = items[0].field
    if any(x.field != field for x in items):
        raise NegarrError(f"{kind} over different fields")
    if len(set(items)) != len(items):
        raise ValueError(f"{kind} must be pairwise distinct")
    return items


def _check_field_order(noun: str, real, field_order) -> None:
    """A field_order, when given, must be a prime power, and a field of
    positive characteristic embeds in no real field; noun names the holder."""
    if field_order is None:
        return
    if prime_power(field_order) is None:
        raise ValueError(f"field order {field_order} is not a prime power")
    if real:
        raise ValueError(f"{noun} over the finite field of order {field_order} cannot be real")


class PointSet:
    """A nonempty set of distinct points over one field, in a fixed order."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = _distinct_over_one_field(
            points, "points", NegarrError("point set is empty"))

    @property
    def field(self):
        return self.points[0].field

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"PointSet({list(self.points)!r})"


class CoordArrangement:
    """A reduced set of distinct lines over one field.

    real is True when the coefficients are real under some embedding; it is
    asserted by generators (and forced for rational coordinates), never
    inferred for extensions.  A finite field embeds in no real field, so
    real=True over one raises ValueError.
    """

    __slots__ = ("field", "lines", "real")

    def __init__(self, lines, real=False):
        self.lines = _distinct_over_one_field(
            lines, "lines", ValueError("arrangement needs at least one line"))
        self.field = self.lines[0].field
        if real and self.field.order is not None:
            raise ValueError(f"lines over the finite field {self.field!r} cannot be real")
        self.real = bool(real) or isinstance(self.field, RationalField)

    @property
    def d(self) -> int:
        return len(self.lines)

    def without(self, labels) -> "CoordArrangement":
        labels = set(labels)
        kept = [l for i, l in enumerate(self.lines) if i not in labels]
        return CoordArrangement(kept, real=self.real)

    def __repr__(self):
        return f"CoordArrangement(d={self.d}, field={self.field!r}, real={self.real})"


class IncidenceStructure:
    """Points with member-line sets for an arrangement of labeled lines.

    points holds (key, members) pairs; on_line maps each line label to the
    ids (indices into points) of the points on that line.  complete means the
    points are exactly the full singular locus of the lines, so each lies on
    two or more of them and the pair-count identity sum C(m_i,2) = C(d,2)
    holds; both are enforced.  Points of multiplicity below 2 are allowed
    (and only appear) when a removal kept the original point set.
    field_order follows the rules of Spectrum's.
    """

    __slots__ = ("line_labels", "points", "on_line", "complete", "real", "field_order")

    def __init__(self, line_labels, points, *, complete, real=False, field_order=None):
        _check_field_order("an incidence structure", real, field_order)
        labels = tuple(line_labels)
        if len(set(labels)) != len(labels):
            raise ValueError("line labels must be distinct")
        if not labels:
            raise ValueError("at least one line required")
        # one pass; each member set is frozen as its point is read, so an
        # unhashable member fails there, before any later point is read
        pts, on_line = [], {lab: [] for lab in labels}
        for pid, (key, members) in enumerate(points):
            members = frozenset(members)
            try:
                for lab in members:
                    on_line[lab].append(pid)
            except KeyError:
                raise ValueError(f"point {key!r} references unknown lines") from None
            pts.append((key, members))
        if not pts:
            raise EmptyResult("incidence structure has no points")
        if complete:
            sizes = [len(members) for _, members in pts]
            if min(sizes) < 2:
                raise ValueError("a complete incidence structure holds only "
                                 "points on two or more of its lines")
            lhs = sum(m * (m - 1) for m in sizes) // 2
            rhs = comb(len(labels), 2)
            if lhs != rhs:
                raise IdentityViolation(lhs, rhs)
        self.line_labels = labels
        self.points = tuple(pts)
        self.on_line = on_line
        self.complete = bool(complete)
        self.real = bool(real)
        self.field_order = field_order

    @property
    def d(self) -> int:
        return len(self.line_labels)

    @property
    def s(self) -> int:
        return len(self.points)

    def multiplicities(self):
        return [len(members) for _, members in self.points]

    def __repr__(self):
        return f"IncidenceStructure(d={self.d}, s={self.s}, complete={self.complete})"


class Spectrum:
    """Multiplicity spectrum: t[k] points where exactly k lines meet.

    The counts describe the full singular locus of the d lines, so the
    pair-count identity sum C(k,2) t_k = C(d,2) is enforced; complete is
    always True, and the keyword accepts nothing else.  profile, when
    present, gives for every line the number of k-fold points on it and must
    satisfy d * profile[k] = k * t_k.  field_order is the size of the
    coordinate field when the spectrum came from one of positive
    characteristic, so it must be a prime power; such a field embeds in no
    real field, so real=True with it raises ValueError.
    """

    __slots__ = ("d", "t", "real", "profile", "field_order")
    complete = True

    def __init__(self, d, t, *, real=False, complete=True, profile=None,
                 field_order=None):
        if d < 1:
            raise ValueError("d must be positive")
        if complete is not True:
            raise ValueError("a spectrum describes a full singular locus: complete must be True")
        _check_field_order("a spectrum", real, field_order)
        clean = {}
        for k in sorted(t):
            v = t[k]
            if not isinstance(k, int) or k < 2:
                raise ValueError(f"multiplicity {k!r} must be an integer >= 2")
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"count t_{k} = {v!r} must be a nonnegative integer")
            if v:
                clean[k] = v
        if not clean:
            raise ValueError("spectrum has no points")
        lhs = sum(comb(k, 2) * v for k, v in clean.items())
        rhs = comb(d, 2)
        if lhs != rhs:
            raise IdentityViolation(lhs, rhs)
        if profile is not None:
            prof = {k: profile[k] for k in sorted(profile) if profile[k]}
            if set(prof) != set(clean):
                raise NegarrError(
                    f"profile multiplicities {sorted(prof)} != spectrum {sorted(clean)}")
            for k, c in prof.items():
                if d * c != k * clean[k]:
                    raise NegarrError(f"d*profile[{k}] = {d * c} but k*t_{k} = {k * clean[k]}")
            profile = prof
        self.d = d
        self.t = clean
        self.real = bool(real)
        self.profile = profile
        self.field_order = field_order

    @property
    def s(self) -> int:
        return sum(self.t.values())

    @property
    def sum_m(self) -> int:
        return sum(k * v for k, v in self.t.items())

    @property
    def sum_m_sq(self) -> int:
        return sum(k * k * v for k, v in self.t.items())

    def is_pencil(self) -> bool:
        return self.t.get(self.d, 0) == 1

    def __eq__(self, other):
        return (isinstance(other, Spectrum)
                and other.d == self.d and other.t == self.t
                and other.real == self.real and other.profile == self.profile
                and other.field_order == self.field_order)

    def __hash__(self):
        return hash((self.d, tuple(sorted(self.t.items()))))

    def __repr__(self):
        return f"Spectrum(d={self.d}, t={self.t}, real={self.real})"


# A validated spectrum from raw counts, with no coordinates behind it.
abstract_spectrum = Spectrum


def meet(l1, l2):
    """The stored reps of the point where two lines of one CoordArrangement
    meet: the walk's per-meet hook, not the public negarr.meet.  The
    arrangement has already checked that its lines share one field and are
    pairwise distinct, so this repeats neither check and builds no
    ProjPoint."""
    return l1.field._cross(l1._r, l2._r)


def singular_points(arr: CoordArrangement) -> IncidenceStructure:
    """All points where at least two lines of the arrangement meet.

    Deduplication is exact via the stored canonical reps that meet returns,
    which key the walk; member sets accumulate from the meets, so a point's
    multiplicity is the number of lines through it.  A pencil yields a
    single point of multiplicity d.

    Line i meets only the later lines that no point already found on it
    holds: a point of multiplicity m is met m - 1 times, from its first
    line, and its member set is complete before any later line is walked.
    The walk keeps, per line, an int mask covered (bit k for line k): the
    OR of the member masks of the points found on it.  Line i meets the
    later lines outside that mask, lowest bit first, so the loop runs once
    per meet, not once per later line.  Once line i is walked, each point
    first found on it is complete, and its mask goes into covered of its
    members between the first and the last, the only lines it can cover;
    a double point covers none.
    """
    if arr.d < 2:
        raise NegarrError("need at least two lines to intersect")
    acc: dict[tuple, list[int]] = {}  # stored reps of each point: its members, ascending
    lines = arr.lines
    covered = [0] * len(lines)
    later = (1 << len(lines)) - 1  # the lines after line i
    for i, line in enumerate(lines):
        later ^= 1 << i
        free = later & ~covered[i]
        found, fresh = [], [i]  # fresh: the next new point, so one hash per meet
        while free:
            bit = free & -free
            free ^= bit
            j = bit.bit_length() - 1
            members = acc.setdefault(meet(line, lines[j]), fresh)
            if members is fresh:
                found.append(members)
                fresh = [i]
            members.append(j)
        for members in found:
            if len(members) > 2:
                mask = sum(1 << k for k in members)
                for k in members[1:-1]:
                    covered[k] |= mask
    field = arr.field
    return IncidenceStructure(
        range(arr.d),
        ((ProjPoint._of_canonical(field, r), acc[r]) for r in sorted(acc, key=field._triple_key)),
        complete=True,
        real=arr.real,
        field_order=field.order,
    )


def multiplicities(arr: CoordArrangement, points) -> list[int]:
    """Number of arrangement lines through each of the points (0, 1, or
    more), counted in one pass of the field's incidence hook."""
    field = arr.field
    points = tuple(points)
    for p in points:
        if p.field != field:
            raise NegarrError("point and arrangement over different fields")
    return field._incidences([p._r for p in points], [l._r for l in arr.lines])


def multiplicity(arr: CoordArrangement, point: ProjPoint) -> int:
    """Number of arrangement lines through the point (0, 1, or more)."""
    return multiplicities(arr, (point,))[0]


def _derive_profile(mult, on_line):
    """The multiset of point multiplicities on each line, as a sorted dict,
    when every line carries the same one; None at the first line whose
    multiset differs from line 0's."""
    lines = iter(on_line.values())
    first = Counter(mult[pid] for pid in next(lines))
    for ids in lines:
        if Counter(mult[pid] for pid in ids) != first:
            return None
    return {k: first[k] for k in sorted(first)}


def spectrum_of(inc: IncidenceStructure) -> Spectrum:
    """Collapse a complete incidence structure to its multiplicity spectrum.

    Flags are copied; a per-line profile is attached when every line carries
    the same multiset of point multiplicities.  A structure that is not the
    full singular locus (a keep_original_points removal) raises ValueError:
    h_quadratic reads it.
    """
    if not inc.complete:
        raise ValueError("spectrum_of needs a full singular locus; "
                         "h_quadratic reads a kept point set")
    mult = inc.multiplicities()
    return Spectrum(
        inc.d,
        dict(Counter(mult)),
        real=inc.real,
        profile=_derive_profile(mult, inc.on_line),
        field_order=inc.field_order,
    )


def restrict_to_singular(points, arr: CoordArrangement) -> PointSet:
    """The subset of the given points that are singular for the arrangement."""
    pts = points.points if isinstance(points, PointSet) else tuple(points)
    kept = [p for p, m in zip(pts, multiplicities(arr, pts)) if m >= 2]
    if not kept:
        raise EmptyResult("no singular points among the given ones")
    return PointSet(kept)


def remove_lines(inc: IncidenceStructure, removed,
                 policy: str = RESTRICT_TO_NEW_SINGULAR) -> IncidenceStructure:
    """Drop the given line labels and update every point's member set.

    keep_original_points keeps all points (multiplicity may fall below 2, the
    result is marked incomplete); restrict_to_new_singular keeps only points
    still on at least two surviving lines, which is exactly the full singular
    locus of the subarrangement.
    """
    removed = frozenset(removed)
    label_set = set(inc.line_labels)
    if not removed <= label_set:
        raise ValueError(f"unknown line labels: {sorted(removed - label_set)}")
    if removed == label_set:
        raise NegarrError("cannot remove every line")
    new_labels = tuple(l for l in inc.line_labels if l not in removed)
    stripped = [(key, members - removed) for key, members in inc.points]
    if policy == RESTRICT_TO_NEW_SINGULAR:
        new_points = [(key, members) for key, members in stripped if len(members) >= 2]
        complete = True
    elif policy == KEEP_ORIGINAL_POINTS:
        new_points = stripped
        complete = False
    else:
        raise ValueError(f"unknown policy {policy!r}")
    if not new_points:
        raise EmptyResult("subarrangement has no singular points")
    return IncidenceStructure(
        new_labels,
        new_points,
        complete=complete,
        real=inc.real,
        field_order=inc.field_order,
    )


def equidistribution(x):
    """The common number of recorded points per line, or None if it varies.

    Works from the per-line index for an IncidenceStructure and from the
    per-line profile for a Spectrum; a spectrum without profile has no
    incidence data to answer from.
    """
    if isinstance(x, Spectrum):
        if x.profile is None:
            raise NegarrError("spectrum carries no per-line profile")
        return sum(x.profile.values())
    values = {len(ids) for ids in x.on_line.values()}
    if len(values) == 1:
        return values.pop()
    return None
