"""H-constants, inequality certificates, and lower bounds for line configurations.

For d lines and s marked points with multiplicities m_i (number of lines
through the i-th point), the quadratic form is

    h = (d^2 - sum m_i^2) / s.

On the full singular locus the pair-count identity sum m_i(m_i-1) = d(d-1)
collapses it to the linear form (d - sum m_i)/s = d/s - mbar.  Every Spectrum
is such a locus (its constructor checks the identity) and keeps s, sum m_i
and sum m_i^2.  As sum_k (a - k) t_k = a*s - sum m_i for any a, each linear
certificate is a closed form in d, those sums, t_2 and t_3.  Everything here
is exact Fraction arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import (
    CoordArrangement,
    IncidenceStructure,
    PointSet,
    Spectrum,
    multiplicities,
)
from .errors import InternalInconsistency, NegarrError
from .fields import compare_with_surd_mean

FORMULA_GENERAL = "general_quadratic"
FORMULA_FULL = "full_locus_linear"

HIRZEBRUCH = "hirzebruch"
MELCHIOR = "melchior"
MAIN_LOWER_BOUND = "main_lower_bound"
REAL_LOWER_BOUND = "real_lower_bound"
INDEX_BOUND = "index_bound"


@dataclass(frozen=True)
class HReport:
    """One H-constant evaluation with the ingredients that produced it."""

    h: Fraction
    d: int
    s: int
    sum_m: int
    sum_m_sq: int
    mbar: Fraction
    formula: str


@dataclass(frozen=True)
class HCurveReport(HReport):
    infimum_attained: bool = False


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one inequality check.

    holds is meaningful only when applicable; slack >= 0 iff the certificate
    holds, except where the bound is an exact value (the pencil and
    quasi-pencil cases of main_lower_bound), which holds iff slack = 0.  note
    carries realizability advisories for violated inequalities.
    """

    kind: str
    applicable: bool
    holds: bool
    slack: Fraction
    reason: str | None = None
    bound_value: Fraction | None = None
    e_slack: Fraction | None = None
    note: str | None = None


@dataclass(frozen=True)
class MeanComparison:
    """Average multiplicity against the root of m(m-1) = sum m_i(m_i-1)/s."""

    mbar: Fraction
    c: Fraction
    ordering: int
    chain_holds: bool


@dataclass(frozen=True)
class PairRemovalReport:
    meeting_multiplicity: int
    over_original: HReport
    over_new: HReport
    new_spectrum: Spectrum


def _report(d, s, sum_m, sum_m_sq, formula) -> HReport:
    if formula == FORMULA_FULL:
        h = Fraction(d - sum_m, s)
    else:
        h = Fraction(d * d - sum_m_sq, s)
    return HReport(h=h, d=d, s=s, sum_m=sum_m, sum_m_sq=sum_m_sq,
                   mbar=Fraction(sum_m, s), formula=formula)


def h_of_multiplicities(d, mults) -> HReport:
    """Quadratic-form H of d lines over points of the given multiplicities."""
    return _report(d, len(mults), sum(mults), sum(m * m for m in mults), FORMULA_GENERAL)


def h_at_points(arr: CoordArrangement, points) -> HReport:
    """Quadratic-form H of the arrangement over an arbitrary point set.

    Multiplicities 0 and 1 are allowed; they simply contribute to s.
    """
    pts = points if isinstance(points, PointSet) else PointSet(points)
    return h_of_multiplicities(arr.d, multiplicities(arr, pts))


def h_quadratic(inc: IncidenceStructure) -> HReport:
    """Quadratic-form H over all recorded points of an incidence structure.

    Intended for the keep-original-points result of a removal, where the
    structure is deliberately not the full singular locus.
    """
    return h_of_multiplicities(inc.d, inc.multiplicities())


def h_full(x) -> HReport:
    """Linear-form H over the full singular locus, from the Spectrum's sums."""
    return _report(x.d, x.s, x.sum_m, x.sum_m_sq, FORMULA_FULL)


def h_curve(x) -> HCurveReport:
    """h_full plus the flag recording whether the curve infimum h <= -1 is met."""
    rep = h_full(x)
    return HCurveReport(**vars(rep), infimum_attained=rep.h <= -1)


def h_fattened(x, k: int) -> Fraction:
    """H after replacing the configuration by its k-fold thickening: k^2 * h.

    The thickening sends d -> kd and m_i -> k m_i over the same s points, so
    (d^2 - sum m_i^2)/s scales by k^2; on a Spectrum it equals h_full's form.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("fattening order must be a positive integer")
    return k * k * h_full(x).h


def _melchior_excess(spec: Spectrum) -> int:
    return 3 * spec.s - spec.sum_m - 3


def _not_real_nonpencil(spec: Spectrum):
    """Why a certificate for real arrangements that are not pencils does not
    apply to spec, or None when it does."""
    if not spec.real:
        return "spectrum not flagged real"
    if spec.is_pencil():
        return "concurrent lines (pencil)"
    return None


def hirzebruch_check(spec: Spectrum) -> CertificateReport:
    """t_2 + (3/4) t_3 >= d + sum_{k>=5} (k-4) t_k.

    Valid for arrangements over the complex numbers with no point on d or
    d-1 of the lines, which forces d >= 4: every spectrum with d <= 3 is a
    pencil ({2:1}, {3:1}) or the triangle ({2:3}, a quasi-pencil).
    Inapplicable otherwise, in particular over positive characteristic.  A
    violation by an abstract spectrum certifies that no complex line
    arrangement realizes it.
    """
    d, t = spec.d, spec.t
    slack = 4 * spec.s - d - spec.sum_m - t.get(2, 0) - Fraction(t.get(3, 0), 4)
    reason = _DEGENERATE.get(main_bound_case(d, spec.s, lambda k: t.get(k, 0))[0])
    note = (None if reason is not None or slack >= 0 else
            "violates the Hirzebruch inequality: not realizable as a complex line arrangement")
    if reason is None and spec.field_order is not None:
        reason = "positive characteristic coordinates"
    return CertificateReport(kind=HIRZEBRUCH, applicable=reason is None,
                             holds=slack >= 0, slack=slack, reason=reason, note=note)


def melchior_check(spec: Spectrum) -> CertificateReport:
    """t_2 >= 3 + sum_{k>3} (k-3) t_k for real arrangements that are not pencils.

    The excess e = t_2 - 3 - sum_{k>3}(k-3) t_k is reported as e_slack even
    when the certificate is inapplicable; a negative excess on a non-pencil
    spectrum certifies that no real line arrangement realizes it.
    """
    e = Fraction(_melchior_excess(spec))
    reason = _not_real_nonpencil(spec)
    note = None
    if e < 0 and not spec.is_pencil():
        note = "violates the Melchior inequality: not realizable as a real line arrangement"
    return CertificateReport(kind=MELCHIOR, applicable=reason is None, holds=e >= 0,
                             slack=e, reason=reason, e_slack=e, note=note)


# why hirzebruch_check does not apply to a degenerate case of main_bound_case
_DEGENERATE = {"pencil": "a point lies on every line (pencil)",
               "quasi-pencil": "a point lies on all lines but one (quasi-pencil)"}


def main_bound_case(d: int, s: int, count):
    """The case and the value num/den of the main lower bound, in integers.

    count(k) is the number of points on exactly k of the d lines and s the
    number of points on two or more.  Pencil (a point on all d lines, always
    so for d = 2): 0/1.  Quasi-pencil (a point on d-1 lines; an arrangement
    of d >= 4 lines has at most one, the triangle has three): -2 + 3/d.
    Otherwise -4 + (2d + t_2)/s + t_3/(4s).  den is always positive.
    """
    if count(d):
        return "pencil", 0, 1
    if count(d - 1):
        return "quasi-pencil", 3 - 2 * d, d
    return "general", 8 * d + 4 * count(2) + count(3) - 16 * s, 4 * s


def main_bound_ceiling(d: int, s: int):
    """A value num/den = -3 + 2d/s that the main lower bound of main_bound_case
    never exceeds on d lines with s points on two or more of them, whenever
    the pair-count identity holds (so over any field).  den is always
    positive.

    General case: the bound is -4 + (2d + t_2 + t_3/4)/s, and
    t_2 + t_3/4 <= s.  Pencil: its point takes every pair, so s = 1, and the
    bound 0 is below 2d - 3 for d >= 2.  Quasi-pencil: its point takes all
    pairs but the d-1 through the last line, so s <= d (an arrangement has
    s = d, the triangle s = 3), and the bound -2 + 3/d is at most
    -1 <= -3 + 2d/s for d >= 3.  Equality holds on a generic arrangement
    (only double points) and on the triangle.
    """
    return 2 * d - 3 * s, s


def main_lower_bound(spec: Spectrum) -> CertificateReport:
    """Case-split lower bound for H on the full singular locus.

    Pencil: h = 0.  Quasi-pencil (a point on d-1 lines): h = -2 + 3/d.
    Otherwise h >= -4 + (2d + t_2 + t_3/4)/s, which is strictly above -4.
    The general case rests on the Hirzebruch inequality, so it is advisory
    only in characteristic 0.  The two degenerate values are combinatorial
    and exact over any field: a pencil or quasi-pencil spectrum with another
    H (such as d = 4, t_3 = 2) is realizable by no line arrangement, and
    fails.
    """
    h = h_full(spec).h
    case, num, den = main_bound_case(spec.d, spec.s, lambda k: spec.t.get(k, 0))
    bound = Fraction(num, den)
    slack = h - bound
    exact = case != "general"
    holds = slack == 0 if exact else slack >= 0
    reason = note = None
    if not exact and spec.field_order is not None:
        reason = "positive characteristic coordinates"
    elif exact and not holds:
        note = f"not the H of a {case}: not realizable as a line arrangement"
    elif not holds:
        note = "below the complex lower bound: not realizable as a complex line arrangement"
    return CertificateReport(kind=MAIN_LOWER_BOUND, applicable=reason is None,
                             holds=holds, slack=slack, reason=reason,
                             bound_value=bound, note=note)


def real_identity_and_bound(spec: Spectrum) -> CertificateReport:
    """Exact decomposition of H for real non-concurrent arrangements.

    With e the Melchior excess and S' = sum_{k>=3}(k-2) t_k the identity

        h = d/s - 3 + (e+3)/(e+3+S')

    holds, so h exceeds the never-attained bound -3 + (e+3)/(e+3+S') by
    exactly d/s > 0.  It needs e >= 0, the Melchior inequality; a spectrum
    that violates it gets an inapplicable report.
    """
    e = _melchior_excess(spec)
    reason = _not_real_nonpencil(spec)
    if reason is None and e < 0:
        reason = "Melchior inequality violated"
    if reason is not None:
        return CertificateReport(kind=REAL_LOWER_BOUND, applicable=False,
                                 holds=False, slack=Fraction(0), reason=reason)
    sprime = spec.sum_m - 2 * spec.s
    h = h_full(spec).h
    bound = Fraction(-3) + Fraction(e + 3, e + 3 + sprime)
    if h != Fraction(spec.d, spec.s) + bound:
        raise InternalInconsistency("real identity failed")
    return CertificateReport(kind=REAL_LOWER_BOUND, applicable=True,
                             holds=h >= bound, slack=h - bound,
                             bound_value=bound, e_slack=Fraction(e),
                             note="identity h = d/s - 3 + (e+3)/(e+3+S') verified")


def finite_field_bound(spec: Spectrum, q: int) -> CertificateReport:
    """h > -q - 1 for configurations with coordinates in a field of q elements.

    The full point-line incidence of the projective plane over that field
    attains h = -q with s = d = q^2 + q + 1, which is flagged in the note.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError("field order must be an integer >= 2")
    h = h_full(spec).h
    bound = Fraction(-q - 1)
    note = None
    if spec.s == spec.d == q * q + q + 1 and h == -q:
        note = f"full point-line incidence over the {q}-element field: h = -q"
    return CertificateReport(kind=INDEX_BOUND, applicable=True, holds=h >= bound,
                             slack=h - bound, bound_value=bound, note=note)


def certificates_for(spec: Spectrum) -> list:
    """The certificate battery for one spectrum: Hirzebruch, Melchior, the
    main and the real lower bound, and the index bound over a finite field."""
    certs = [hirzebruch_check(spec), melchior_check(spec), main_lower_bound(spec),
             real_identity_and_bound(spec)]
    if spec.field_order is not None:
        certs.append(finite_field_bound(spec, spec.field_order))
    return certs


def mean_multiplicity_bound(x) -> MeanComparison:
    """Compare mbar with the m solving m(m-1) = sum m_i(m_i-1)/s, exactly.

    The average never exceeds that root, with equality iff all multiplicities
    coincide; equivalently h_full = d/s - mbar >= d/s - m.  chain_holds
    records the rearranged inequality.
    """
    mbar = Fraction(x.sum_m, x.s)
    c = Fraction(x.sum_m_sq - x.sum_m, x.s)
    ordering = compare_with_surd_mean(mbar, c)
    return MeanComparison(mbar=mbar, c=c, ordering=ordering, chain_holds=ordering <= 0)


def subconfig_formula(h, d: int, d_prime: int, n: int, s: int) -> Fraction:
    """H over the original locus after shrinking d lines to d', each line
    carrying n of the s marked points:  h + (d - d')(n - 1)/s."""
    if not 1 <= d_prime <= d:
        raise NegarrError(f"need 1 <= d' <= d, got d' = {d_prime}, d = {d}")
    if n < 1:
        raise ValueError("points per line must be at least 1")
    if s < 1:
        raise ValueError("s must be at least 1")
    return Fraction(h) + Fraction((d - d_prime) * (n - 1), s)


def pair_removal_from_profile(spec: Spectrum, meeting_multiplicity: int) -> PairRemovalReport:
    """Remove two lines meeting at a point of the given multiplicity.

    Uses the per-line profile: every point on exactly one removed line drops
    by 1, the meeting point drops by 2, everything else is untouched.  Valid
    because the profile asserts all lines look alike.  Reports H both over
    the original point set and over the new full singular locus, with the
    exact new spectrum.
    """
    m = meeting_multiplicity
    if spec.profile is None:
        raise NegarrError("spectrum carries no per-line profile")
    if m not in spec.t:
        raise NegarrError(f"no point of multiplicity {m} in the spectrum")
    if spec.d < 4:
        raise NegarrError("need at least four lines to remove two: "
                          "one line left has no singular point")
    # d * profile[k] = k * t_k and C(k,2) t_k <= C(d,2) give
    # profile[k] (k - 1) <= d - 1, so with d >= 4 no count below goes negative
    new_counts: Counter = Counter()
    for k, tk in spec.t.items():
        meeting = int(k == m)
        on_removed = 2 * (spec.profile[k] - meeting)
        new_counts[k] += tk - on_removed - meeting
        new_counts[k - 1] += on_removed
    new_counts[m - 2] += 1
    d_new = spec.d - 2
    new_t = {k: v for k, v in new_counts.items() if k >= 2 and v > 0}
    new_spectrum = Spectrum(d_new, new_t, real=spec.real, field_order=spec.field_order)
    return PairRemovalReport(meeting_multiplicity=m,
                             over_original=h_of_multiplicities(d_new, list(new_counts.elements())),
                             over_new=h_full(new_spectrum),
                             new_spectrum=new_spectrum)


def wiman_pair_removal(meeting_multiplicity: int) -> PairRemovalReport:
    """Pair removal for the 45-line Wiman configuration, by meeting multiplicity."""
    if meeting_multiplicity not in (3, 4, 5):
        raise NegarrError(
            f"Wiman points have multiplicity 3, 4, or 5, not {meeting_multiplicity}")
    from .catalog import gen_wiman

    return pair_removal_from_profile(gen_wiman(), meeting_multiplicity)
