"""Finite-generation verification for symbolic Rees rings of point ideals.

Two routes establish the criterion for a witness pair (xi1, r1), (xi2, r2)
with xi_i in the r_i-th symbolic power of the points ideal I:

* the homogeneous product check: both witnesses homogeneous of degrees d1, d2,
  height((xi1, xi2)) = 2, and d1*d2 = r1*r2*e(S/I);
* the length check against a validated linear form u: the local length of
  S/(u, xi1, xi2) at the origin equals r1*r2 * dim_K S/(uS + I).

The local length is computed from one m-adically truncated standard basis of
J + m^N' under the local order DS: its standard monomials, counted by degree,
give every colength dim S/(J + m^N) with N <= N', and the first degree d with
none certifies by Nakayama that colength(d) is the exact local length.  N'
grows only when no such degree lies below it.  A verified criterion implies
the symbolic Rees ring is finitely generated; a failed check proves nothing
(the criterion is existential over witness pairs).
"""

from __future__ import annotations

import random
import time

from .errors import (
    CapExceededError,
    GenericityExhaustedError,
    InputError,
    InvariantError,
    MembershipFailedError,
    NotHomogeneousError,
)
from .groebner import lead_monomial_basis
from .ideals import INFINITE, Ideal
from .points import (
    PointPowerCache,
    PointSet,
    base_ring,
    points_ideal,
    symbolic_power_membership,
)
from .polynomials import DS, Polynomial, mono_divides

VERDICT_VERIFIED = "condition-verified"
VERDICT_NOT_ESTABLISHED = "condition-not-established"
METHOD_HOMOGENEOUS = "prop-1.2"
METHOD_LENGTH = "thm-2.1"

GENERIC_FORM_DRAWS = 32
COEFFICIENT_RANGE = 9
HARD_CAP = 256


class GenericLinearForm:
    """A validated linear form: vanishing at no configuration point and cutting
    the points ideal down to colength #H."""

    __slots__ = ("polynomial", "int_coefficients", "seed", "draws", "colength")

    def __init__(self, polynomial, int_coefficients, seed, draws, colength):
        self.polynomial = polynomial
        self.int_coefficients = int_coefficients
        self.seed = seed
        self.draws = draws
        self.colength = colength

    def __repr__(self):
        return f"GenericLinearForm({self.polynomial}, seed={self.seed})"


class VerificationReport:
    """Everything one run produced, in the shape the CLI serializes."""

    def __init__(self, config, field, seed):
        self.schema = 1
        self.config = config
        self.field = field
        self.memberships = []
        self.method = None
        self.height = None
        self.product_check = None
        self.lengths = None
        self.u = None
        self.seed = seed
        self.verdict = VERDICT_NOT_ESTABLISHED
        self.timings_ms = {}
        self.notes = []
        self.confirmation = None

    def to_json_dict(self):
        lengths = None
        if self.lengths is not None:
            lengths = {
                k: ("Infinite" if v == INFINITE else v) for k, v in self.lengths.items()
            }
        return {
            "schema": self.schema,
            "config": self.config,
            "field": self.field,
            "memberships": self.memberships,
            "method": self.method,
            "height": self.height,
            "product_check": self.product_check,
            "lengths": lengths,
            "u": self.u,
            "seed": self.seed,
            "verdict": self.verdict,
            "timings_ms": self.timings_ms,
            "notes": self.notes,
            "confirmation": self.confirmation,
        }


def _ms(t0):
    return round((time.monotonic() - t0) * 1000, 3)


def membership_results(H: PointSet, witnesses, ring, cache=None):
    """Membership record for both witnesses, via per-point normal forms."""
    cache = cache or PointPowerCache(ring)
    out = []
    for idx, (xi, r) in enumerate(((witnesses.xi1, witnesses.r1), (witnesses.xi2, witnesses.r2)), 1):
        out.append({"witness": idx, "r": r, "member": symbolic_power_membership(xi, H, r, cache)})
    return out


def pick_generic_linear_form(H: PointSet, seed: int, ideal: Ideal | None = None) -> GenericLinearForm:
    """Draw u = a*x + b*y + c*z with small integer coefficients from the seed.

    Accepted only if u vanishes at no point of H and dim_K S/(uS + I_H) equals
    #H; up to 32 draws before giving up (tiny prime fields can exhaust this).
    """
    field = H.field
    ring = base_ring(field)
    if ideal is None:
        ideal = points_ideal(H, ring)
    rng = random.Random(seed)
    for draw in range(GENERIC_FORM_DRAWS):
        coeffs = tuple(rng.randint(-COEFFICIENT_RANGE, COEFFICIENT_RANGE) for _ in range(3))
        if not any(coeffs):
            continue
        u = ring.zero()
        for name, c in zip(("x", "y", "z"), coeffs):
            if c:
                u = u + ring.var(name).scale(field.from_int(c))
        if u.is_zero():
            continue  # coefficients can collapse mod p
        if any(field.is_zero(u.evaluate(P.coords)) for P in H):
            continue
        colength = Ideal(list(ideal.generators) + [u], ring=ring).vector_space_dimension()
        if colength == len(H):
            return GenericLinearForm(u, coeffs, seed, draw, colength)
    raise GenericityExhaustedError(
        f"no acceptable linear form in {GENERIC_FORM_DRAWS} draws from seed {seed}"
    )


# --- local length by m-adic truncation ----------------------------------------------


def _exponents_of_degree(nvars, d):
    """Exponent tuples of total degree d, in descending lex order."""
    if nvars == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in _exponents_of_degree(nvars - 1, d - e):
            yield (e,) + rest


def _truncation_inputs(gens, ring, n):
    """Generators of J + m^N as the truncated runs take them: every generator
    cut below degree N, plus all monomials of degree N."""
    trunc = []
    for g in gens:
        items = {m: c for m, c in g.terms.items() if sum(m) < n}
        if items:
            trunc.append(Polynomial(ring, items))
    trunc.extend(ring.monomial(e) for e in _exponents_of_degree(ring.nvars, n))
    return trunc


def _standard_count(leads, nvars, d):
    """Number of degree-d monomials outside the monomial ideal the leads span."""
    return sum(
        1 for mono in _exponents_of_degree(nvars, d)
        if not any(mono_divides(lm, mono) for lm in leads)
    )


def _local_standard_counts(gens, ring, n):
    """Standard monomials of J + m^n under DS, counted by degree 0..n-1: the
    colength of J + m^N for any N <= n is the sum of the first N counts."""
    leads = lead_monomial_basis(_truncation_inputs(gens, ring, n), order=DS,
                                truncate_degree=n)
    return [_standard_count(leads, ring.nvars, d) for d in range(n)]


def _truncated_colength(gens, ring, n):
    """dim_K S/(J + m^N) from one grevlex run; the reference the local-order
    route is tested against."""
    leads = lead_monomial_basis(_truncation_inputs(gens, ring, n), truncate_degree=n)
    return sum(_standard_count(leads, ring.nvars, d) for d in range(n))


def local_length_at_origin(J: Ideal, cap: int, target: int | None = None):
    """Length of the localization at the irrelevant maximal ideal, or INFINITE.

    Returns ``(length, stable_at)``.  The length is INFINITE exactly when a
    positive-dimensional component (embedded or not) passes through the
    origin, i.e. when the origin lies in V(J : m^infinity).  Since
    J : m^infinity is the intersection of the J : v^infinity over the
    variables v and V(A ∩ B) = V(A) ∪ V(B), that holds iff for some v the
    saturation J : v^infinity, one elimination, lies in m.  The test runs
    only when J is not zero-dimensional.  Otherwise one standard basis of
    J + m^N' under the local order DS is computed, with every term of
    degree > N' dropped (Greuel-Pfister, A Singular Introduction to
    Commutative Algebra, 1.6-1.7; Mora's tangent cone algorithm).  J + m^N'
    is m-primary, so the standard basis is finite and its lead monomials
    span in(J + m^N').

    One run gives every colength up to N'.  Under a local degree order the
    lead term of f lies among its lowest-degree terms, so for N <= N' an
    element of J + m^N whose lead has degree < N agrees below degree N with
    an element of J, and

        in(J + m^N) = in(J + m^N')|_{deg < N} + m^N.

    Hence colength(N) = dim S/(J + m^N) is the number of standard monomials
    of degree below N.  If some degree d < N' has no standard monomial, then
    colength(d) = colength(d+1), i.e. m^d lies in J + m^(d+1), and Nakayama's
    lemma in the local ring gives m^d in J: the local length is colength(d).
    The least such d is returned as the certificate pair (d, d+1), with
    stable_at = d+1.  Without one, N' grows by a quarter (a char-0 run past
    the stabilization degree is far dearer than one below it) up to ``cap``.

    ``target`` (the expected length) only picks the first N': a colength of
    ``target`` in two variables needs d(d+1)/2 >= target, so N' starts one
    above the least such d.  It never affects the value.
    """
    ring = J.ring
    gens = [g for g in J.generators if not g.is_zero()]
    if not gens:
        return INFINITE, None
    J = Ideal(gens, ring=ring)
    if J.is_unit():
        return 0, None
    if J.krull_dimension() >= 1:
        for v in ring.variables:
            sat = J.saturation(ring.var(v))
            if all(ring.field.is_zero(p.constant_term()) for p in sat.generators):
                return INFINITE, None
    if cap < 3:
        raise InputError("the truncation cap must be at least 3")
    n = 2
    if target is not None:
        while (n - 1) * n // 2 < target:
            n += 1
    n = min(n, cap)
    while True:
        counts = _local_standard_counts(gens, ring, n)
        if 0 in counts:
            d = counts.index(0)
            return sum(counts[:d]), d + 1
        if n >= cap:
            raise CapExceededError(f"no stabilization up to the cap N = {cap}")
        n = min(n + max(1, n // 4), cap)


def default_cap(rhs: int) -> int:
    """Default truncation cap: 2*rhs + 8, clamped to the hard cap.

    A finite local length L always stabilizes by N = L + 1, so 2*rhs + 8
    leaves room for moderately perturbed pairs whose length exceeds rhs.  It
    also clears the colength floor N(N+1)/2 > 4*rhs, which alone is not
    always enough (the 2x3 grid stabilizes one step beyond that floor).
    """
    return min(2 * rhs + 8, HARD_CAP)


def _eliminate_along(u: GenericLinearForm, polys):
    """Substitute away the largest-coefficient variable of u; returns 2-variable images."""
    coeffs = u.int_coefficients
    ring = polys[0].ring
    field = ring.field
    pivot = max(range(3), key=lambda i: (abs(coeffs[i]), i))
    pname = ring.variables[pivot]
    inv = field.inv(field.from_int(coeffs[pivot]))
    expr = ring.zero()
    for i, c in enumerate(coeffs):
        if i != pivot and c:
            expr = expr + ring.var(ring.variables[i]).scale(field.mul(field.from_int(-c), inv))
    out = []
    for p in polys:
        out.append(p.substitute(pname, expr).drop_variable(pname))
    return out


def check_homogeneous_condition(H: PointSet, witnesses, ideal: Ideal | None = None,
                                precomputed_memberships=None) -> VerificationReport:
    """Product-form criterion for a homogeneous witness pair."""
    if not witnesses.both_homogeneous():
        raise NotHomogeneousError("both witnesses must be homogeneous for this check")
    field = H.field
    ring = base_ring(field)
    report = VerificationReport(config=None, field=field.spec.to_json(), seed=None)
    report.method = METHOD_HOMOGENEOUS
    t0 = time.monotonic()
    if ideal is None:
        ideal = points_ideal(H, ring)
    report.timings_ms["points_ideal"] = _ms(t0)

    t0 = time.monotonic()
    memberships = precomputed_memberships or membership_results(H, witnesses, ring)
    report.memberships = memberships
    report.timings_ms["memberships"] = _ms(t0)
    if not all(m["member"] for m in memberships):
        report.verdict = VERDICT_NOT_ESTABLISHED
        report.notes.append("a witness is outside its symbolic power")
        return report

    t0 = time.monotonic()
    height = Ideal([witnesses.xi1, witnesses.xi2], ring=ring).height()
    report.height = height
    report.timings_ms["height"] = _ms(t0)

    t0 = time.monotonic()
    e = ideal.hilbert_multiplicity()
    d1 = witnesses.xi1.total_degree()
    d2 = witnesses.xi2.total_degree()
    holds = d1 * d2 == witnesses.r1 * witnesses.r2 * e
    report.product_check = {
        "d1": d1,
        "d2": d2,
        "r1": witnesses.r1,
        "r2": witnesses.r2,
        "e": e,
        "holds": holds,
    }
    report.timings_ms["product_check"] = _ms(t0)
    report.verdict = VERDICT_VERIFIED if (height == 2 and holds) else VERDICT_NOT_ESTABLISHED
    return report


def check_condition_by_length(H: PointSet, witnesses, u: GenericLinearForm | None = None,
                              seed: int = 0, cap: int | None = None,
                              ideal: Ideal | None = None,
                              precomputed_memberships=None) -> VerificationReport:
    """Length-equality criterion: local length of (u, xi1, xi2) vs r1*r2*dim S/(uS+I)."""
    field = H.field
    ring = base_ring(field)
    report = VerificationReport(config=None, field=field.spec.to_json(), seed=seed)
    report.method = METHOD_LENGTH

    t0 = time.monotonic()
    if ideal is None:
        ideal = points_ideal(H, ring)
    report.timings_ms["points_ideal"] = _ms(t0)

    t0 = time.monotonic()
    memberships = precomputed_memberships or membership_results(H, witnesses, ring)
    report.memberships = memberships
    report.timings_ms["memberships"] = _ms(t0)
    if not all(m["member"] for m in memberships):
        raise MembershipFailedError("witnesses are outside their symbolic powers")

    t0 = time.monotonic()
    if u is None:
        u = pick_generic_linear_form(H, seed, ideal=ideal)
    report.u = str(u.polynomial)
    report.seed = u.seed
    if u.colength != len(H):
        raise InputError("the linear form fails the colength validation")
    rhs = witnesses.r1 * witnesses.r2 * u.colength
    report.timings_ms["linear_form"] = _ms(t0)

    t0 = time.monotonic()
    xi1s, xi2s = _eliminate_along(u, [witnesses.xi1, witnesses.xi2])
    if xi1s.is_zero() and xi2s.is_zero():
        lhs, stable_at = INFINITE, None
    else:
        two_ring = xi1s.ring
        J = Ideal([g for g in (xi1s, xi2s) if not g.is_zero()], ring=two_ring)
        if cap is None:
            cap = default_cap(rhs)
        lhs, stable_at = local_length_at_origin(J, cap, target=rhs)
    report.timings_ms["local_length"] = _ms(t0)

    if lhs != INFINITE and lhs < rhs:
        raise InvariantError(
            f"computed local length {lhs} fell below the certified bound {rhs}"
        )
    report.lengths = {"lhs": lhs, "rhs": rhs}
    if stable_at is not None:
        report.lengths["stable_at"] = stable_at
    report.verdict = VERDICT_VERIFIED if lhs == rhs else VERDICT_NOT_ESTABLISHED
    return report


def verify(config, seed: int = 0, cap: int | None = None) -> VerificationReport:
    """Full verification of a configuration's witness pair.

    Routes homogeneous pairs through the product check, everything else
    through the length check, which is repeated with a second seed and must
    agree.  A verified report certifies finite generation of the symbolic
    Rees ring; a non-established one proves nothing either way.  Each stage is
    timed where it runs; the confirmation seed's run is the one entry
    ``timings_ms["confirmation"]``.
    """
    t_total = time.monotonic()
    H = config.points
    witnesses = config.witnesses
    ring = config.ring
    stages = {}
    t0 = time.monotonic()
    ideal = config.points_ideal()
    stages["points_ideal"] = _ms(t0)

    t0 = time.monotonic()
    memberships = membership_results(H, witnesses, ring, PointPowerCache(ring))
    stages["memberships"] = _ms(t0)

    if not all(m["member"] for m in memberships):
        report = VerificationReport(config.provenance, config.field.spec.to_json(), seed)
        report.memberships = memberships
        report.method = METHOD_HOMOGENEOUS if witnesses.both_homogeneous() else METHOD_LENGTH
        report.verdict = VERDICT_NOT_ESTABLISHED
        report.notes.append("a witness failed its symbolic-power membership")
        report.timings_ms.update(stages)
        report.timings_ms["total"] = _ms(t_total)
        return report

    if witnesses.both_homogeneous():
        report = check_homogeneous_condition(H, witnesses, ideal=ideal,
                                             precomputed_memberships=memberships)
    else:
        report = check_condition_by_length(H, witnesses, seed=seed, cap=cap, ideal=ideal,
                                           precomputed_memberships=memberships)
        t0 = time.monotonic()
        second = check_condition_by_length(H, witnesses, seed=seed + 1, cap=cap, ideal=ideal,
                                           precomputed_memberships=memberships)
        stages["confirmation"] = _ms(t0)
        if second.verdict != report.verdict:
            raise InvariantError("verdicts disagree across seeds")
        if report.verdict == VERDICT_VERIFIED and second.lengths["lhs"] != report.lengths["lhs"]:
            raise InvariantError("local lengths disagree across verifying seeds")
        report.confirmation = {
            "seed": second.seed,
            "u": second.u,
            "lhs": "Infinite" if second.lengths["lhs"] == INFINITE else second.lengths["lhs"],
            "verdict": second.verdict,
        }
    report.config = config.provenance
    report.field = config.field.spec.to_json()
    report.seed = seed
    if config.field.characteristic:
        report.notes.append("characteristic-p check")
    if report.method == METHOD_LENGTH:
        report.notes.append("length route restricted to validated general linear forms")
    if report.verdict == VERDICT_VERIFIED:
        report.notes.append("criterion verified: the symbolic Rees ring is finitely generated")
    else:
        report.notes.append("criterion not established by this witness pair (not a disproof)")
    # the check functions only saw the precomputed stages; record where they ran
    report.timings_ms.update(stages)
    report.timings_ms["total"] = _ms(t_total)
    return report
