"""Finite-generation verification for symbolic Rees rings of point ideals.

Two routes establish the criterion for a witness pair (xi1, r1), (xi2, r2)
with xi_i in the r_i-th symbolic power of the points ideal I:

* the homogeneous product check: both witnesses homogeneous of degrees d1, d2,
  height((xi1, xi2)) = 2, and d1*d2 = r1*r2*e(S/I);
* the length check against a linear form u vanishing at no point of H: the
  local length of S/(u, xi1, xi2) at the origin equals r1*r2 * dim_K S/(uS + I).

Both e(S/I) and dim_K S/(uS + I) equal #H and are not computed: H is #H
distinct K-rational points, so I is radical and S/I is one-dimensional and
Cohen-Macaulay with Hilbert polynomial #H, and such a u lies in no associated
prime of I, so it is a nonzerodivisor on S/I (Cox-Little-O'Shea, Ideals,
Varieties, and Algorithms, ch. 9).

The local length is computed from one m-adically truncated standard basis of
J + m^N' under the local order DS: its standard monomials, counted by degree,
give every colength dim S/(J + m^N) with N <= N', and the first degree d with
none certifies by Nakayama that colength(d) is the exact local length.  N'
grows only when no such degree lies below it, and only then is J tested for
an infinite length.

Over Q or Q(zeta_n) the length is first proved modulo a degree-one prime P
of Z[zeta_n] over p >= 2^30.  M_N = O_P[x,y]/(f, g, m^N) is a finitely
generated module over the DVR O_P, so dim_K(J + m^N) <= dim_F_p(J_P + m^N)
for every N and the char-0 length is at most the F_p length L_p; Huneke
(Michigan Math. J. 34, 1987) gives lhs >= rhs, so L_p = rhs proves lhs = rhs.
Any other L_p (an unlucky prime, or lhs > rhs) falls back to the exact
char-0 route; a finite L_p still bounds that route (no infinite-length test,
N' <= L_p + 1), whose first run is at the F_p certificate degree.
``stable_at`` is the degree of whichever certificate proved the length.

``verify`` repeats the length route with a second seed as a confirmation,
and that run starts at the ``stable_at`` the first seed proved.  The counts
below N' do not depend on N', so the starting point cannot change the
confirmation's length or its ``stable_at``: it only decides how many runs
it takes, one when its certificate degree is at most the first seed's.

A verified criterion implies the symbolic Rees ring is finitely generated; a
failed check proves nothing (the criterion is existential over witness pairs).
"""

from __future__ import annotations

import itertools
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
from .groebner import lead_monomial_basis, standard_count
from .ideals import INFINITE, Ideal
from .points import PointSet, base_ring, symbolic_power_membership
from .points import points_ideal  # noqa: F401  (unused; perfbench/tracing.py patches it by name)
from .polynomials import DS, Polynomial, PolyRing

VERDICT_VERIFIED = "condition-verified"
VERDICT_NOT_ESTABLISHED = "condition-not-established"
METHOD_HOMOGENEOUS = "prop-1.2"
METHOD_LENGTH = "thm-2.1"

GENERIC_FORM_DRAWS = 32
COEFFICIENT_RANGE = 9
ENUMERATED_FIELD_BOUND = 64  # over F_q below this, every line is tried after the draws
HARD_CAP = 256


class GenericLinearForm:
    """A linear form vanishing at no point of H.  The points are distinct and
    rational, so I_H is radical and S/I_H Cohen-Macaulay; u lies in no
    associated prime, is a nonzerodivisor, and dim_K S/(uS + I_H) = #H."""

    __slots__ = ("polynomial", "int_coefficients", "seed", "draws")

    def __init__(self, polynomial, int_coefficients, seed, draws):
        self.polynomial = polynomial
        self.int_coefficients = int_coefficients
        self.seed = seed
        self.draws = draws

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


def membership_results(H: PointSet, witnesses, ring):
    """Membership record for both witnesses, by order of vanishing at each
    point of H; ``ring`` is the witnesses' ring (the test needs nothing from it)."""
    out = []
    for idx, (xi, r) in enumerate(((witnesses.xi1, witnesses.r1), (witnesses.xi2, witnesses.r2)), 1):
        out.append({"witness": idx, "r": r, "member": symbolic_power_membership(xi, H, r)})
    return out


def _seeded_draws(seed):
    """The GENERIC_FORM_DRAWS coefficient triples drawn from the seed."""
    rng = random.Random(seed)
    for _ in range(GENERIC_FORM_DRAWS):
        yield tuple(rng.randint(-COEFFICIENT_RANGE, COEFFICIENT_RANGE) for _ in range(3))


def _lines_over(q, seed):
    """Every line of the plane over F_q, as (a, b, 1), (a, 1, 0) and (1, 0, 0),
    in one fixed cyclic order entered at position seed mod (q^2 + q + 1)."""
    lines = [(a, b, 1) for a in range(q) for b in range(q)]
    lines += [(a, 1, 0) for a in range(q)] + [(1, 0, 0)]
    k = seed % len(lines)
    return lines[k:] + lines[:k]


def pick_generic_linear_form(H: PointSet, seed: int) -> GenericLinearForm:
    """Draw u = a*x + b*y + c*z with small integer coefficients from the seed.

    Accepted as soon as u vanishes at no point of H: I_H is radical (distinct
    rational points) and S/I_H Cohen-Macaulay, so such a u is a
    nonzerodivisor and dim_K S/(uS + I_H) = #H.  Up to 32 draws; over F_q
    with q < ENUMERATED_FIELD_BOUND, every line of the plane is tried after
    them, so GenericityExhaustedError there means no line over F_q avoids H
    (tiny prime fields can be blocked that way).
    """
    field = H.field
    ring = base_ring(field)
    q = field.characteristic
    candidates = _seeded_draws(seed)
    if 0 < q < ENUMERATED_FIELD_BOUND:
        candidates = itertools.chain(candidates, _lines_over(q, seed))
    for draw, coeffs in enumerate(candidates):
        u = ring.zero()
        for name, c in zip(("x", "y", "z"), coeffs):
            if c:
                u = u + ring.var(name).scale(field.from_int(c))
        if u.is_zero():
            continue  # coefficients can collapse mod p
        if not any(field.is_zero(u.evaluate(P.coords)) for P in H):
            return GenericLinearForm(u, coeffs, seed, draw)
    if 0 < q < ENUMERATED_FIELD_BOUND:
        raise GenericityExhaustedError(
            f"none of the {q * q + q + 1} lines over F_{q} avoids the {len(H)} points"
        )
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


def _local_standard_counts(gens, ring, n):
    """Standard monomials of J + m^n under DS, counted by degree 0..n-1: the
    colength of J + m^N for any N <= n is the sum of the first N counts."""
    leads = lead_monomial_basis(_truncation_inputs(gens, ring, n), order=DS,
                                truncate_degree=n)
    return [standard_count(leads, ring.nvars, d) for d in range(n)]


def _first_truncation(target):
    """The first N' for an expected length ``target``: a colength of target
    in two variables needs d(d+1)/2 >= target, so one above the least such d."""
    n = 2
    while (n - 1) * n // 2 < target:
        n += 1
    return n


def _certificate_runs(gens, ring, cap, first):
    """One DS run per N', growing from N' = ``first`` up to ``cap``; yields
    the certified ``(length, stable_at)`` of each run, or None when it has no
    certificate, and raises CapExceededError after a run at the cap without
    one."""
    if cap < 3:
        raise InputError("the truncation cap must be at least 3")
    n = min(first, cap)
    while True:
        counts = _local_standard_counts(gens, ring, n)
        if 0 in counts:
            d = counts.index(0)
            yield sum(counts[:d]), d + 1
        else:
            yield None
        if n >= cap:
            raise CapExceededError(f"no stabilization up to the cap N = {cap}")
        n = min(n + max(1, n // 4), cap)


def _meets_positive_dimension(J: Ideal) -> bool:
    """True iff a positive-dimensional component of V(J) passes through the
    origin (the INFINITE gate)."""
    if J.krull_dimension() < 1:
        return False
    ring = J.ring
    for v in ring.variables:
        sat = J.saturation(ring.var(v))
        if all(ring.field.is_zero(p.constant_term()) for p in sat.generators):
            return True
    return False


def local_length_at_origin(J: Ideal, cap: int, first: int = 2):
    """Length of the localization at the irrelevant maximal ideal, or INFINITE.

    Returns ``(length, stable_at)``.  One standard basis of J + m^N' under
    the local order DS is computed, with every term of degree > N' dropped
    (Greuel-Pfister, A Singular Introduction to Commutative Algebra, 1.6-1.7;
    Mora's tangent cone algorithm).  J + m^N' is m-primary, so the standard
    basis is finite and its lead monomials span in(J + m^N').

    One run gives every colength up to N'.  Under a local degree order the
    lead term of f lies among its lowest-degree terms, so for N <= N' an
    element of J + m^N whose lead has degree < N agrees below degree N with
    an element of J, and

        in(J + m^N) = in(J + m^N')|_{deg < N} + m^N.

    Hence colength(N) = dim S/(J + m^N) is the number of standard monomials
    of degree below N.  If some degree d < N' has no standard monomial, then
    colength(d) = colength(d+1), i.e. m^d lies in J + m^(d+1), and Nakayama's
    lemma in the local ring gives m^d in J: the local length is colength(d).
    This holds whatever the global dimension of J.  The least such d is
    returned as the certificate pair (d, d+1), with stable_at = d+1.  The
    run itself stops there: once the leads cover degree d no S-pair of lcm
    degree >= d can add a lead, so none is reduced
    (``groebner._completed_basis``).  Without a certificate, N' grows by a
    quarter up to ``cap``.  A run's cost still grows with N', since every
    term up to degree N' takes part in its reductions, so N' starts from
    ``first`` rather than high enough for any input.

    Only after the first run without a certificate does the INFINITE gate
    run.  The length is INFINITE exactly when a positive-dimensional
    component (embedded or not) passes through the origin, i.e. when the
    origin lies in V(J : m^infinity).  Since J : m^infinity is the
    intersection of the J : v^infinity over the variables v and
    V(A ∩ B) = V(A) ∪ V(B), that holds iff for some v the saturation
    J : v^infinity, one elimination, lies in m.  The test runs only when J
    is not zero-dimensional.  An INFINITE J never has a certificate, so it
    pays one run at the first N'.

    ``first`` is the first N'.  ``check_condition_by_length`` picks it from
    the expected length (``_first_truncation``), and the confirmation seed of
    ``verify`` passes the ``stable_at`` the first seed proved.  It does not
    affect the value: the standard-monomial counts below N' do not depend on
    N', so every schedule finds the same least degree d without one.  A
    first N' at or above d + 1 certifies in one run and the gate never runs;
    one below it fails, the gate runs, and N' grows by a quarter as from any
    other first run.
    """
    ring = J.ring
    gens = [g for g in J.generators if not g.is_zero()]
    if not gens:
        return INFINITE, None
    for run, found in enumerate(_certificate_runs(gens, ring, cap, first)):
        if found is not None:
            return found
        if run == 0 and _meets_positive_dimension(Ideal(gens, ring=ring)):
            return INFINITE, None


def _finite_local_length(J: Ideal, cap: int, first: int):
    """``local_length_at_origin`` for a J whose local length is already known
    to be finite: the same runs from N' = ``first``, without the INFINITE gate."""
    return next(found for found in _certificate_runs(J.generators, J.ring, cap, first)
                if found is not None)


def _local_length_mod_prime(J: Ideal, cap: int, rhs: int, first: int):
    """The local length L_p of J modulo a prime, with its ``stable_at``,
    when it is finite; None when it is not.

    The generators are made integral and reduced modulo the degree-one prime
    P of ``field.reduction_mod_prime``; ``local_length_at_origin`` then runs
    unchanged over F_p, from N' = ``first``.  Its length L_p bounds the
    char-0 length L from above, so L_p = rhs, with Huneke's
    L >= rhs, proves L = rhs; the ``stable_at`` is then the degree of that
    F_p certificate.  A larger L_p (an unlucky prime, or L > rhs) still
    bounds L, so the caller's exact route needs no INFINITE gate and no N'
    above L_p + 1.  An INFINITE L_p
    (also what a generator that vanishes mod P gives), or a cap exceeded
    over F_p, proves nothing: None.  L_p < rhs contradicts L_p >= L >= rhs
    and raises InvariantError.
    """
    ring = J.ring
    fp, reduce = ring.field.reduction_mod_prime()
    fp_ring = PolyRing(fp, ring.variables)
    images = [Polynomial(fp_ring, dict(reduce(list(g.terms.items())))) for g in J.generators]
    try:
        lp, stable_at = local_length_at_origin(Ideal(images, ring=fp_ring), cap, first)
    except CapExceededError:
        return None
    if lp == INFINITE:
        return None
    if lp < rhs:
        raise InvariantError(
            f"the local length {lp} mod {fp.p} fell below the certified bound {rhs}"
        )
    return lp, stable_at


def default_cap(rhs: int) -> int:
    """Default truncation cap: 2*rhs + 8, clamped to the hard cap.

    A finite local length L always stabilizes by N = L + 1, so 2*rhs + 8
    leaves room for moderately perturbed pairs whose length exceeds rhs.  It
    also clears the colength floor N(N+1)/2 > 4*rhs, which alone is not
    always enough (the 2x3 grid stabilizes one step beyond that floor).
    """
    return min(2 * rhs + 8, HARD_CAP)


def _eliminate_along(u: GenericLinearForm, polys):
    """Substitute away the largest-coefficient variable of u; returns 2-variable images.

    The pivot is the variable whose coefficient a is largest in absolute value
    among those nonzero in the field.  Fraction-free: with u = a*x_p + l, xi is
    scaled to integer content one, each of its terms of x_p-degree e is
    multiplied by a^(deg xi - e), and x_p is replaced by -l.  The image is a
    nonzero scalar multiple of xi(x_p = -l/a), so the ideal and every length
    stay the same, and over Q and Q(zeta_n) its coordinates are integers.
    """
    coeffs = u.int_coefficients
    ring = polys[0].ring
    field = ring.field
    pivot = max((i for i in range(3) if not field.is_zero(field.from_int(coeffs[i]))),
                key=lambda i: (abs(coeffs[i]), i))
    pname = ring.variables[pivot]
    a = field.from_int(coeffs[pivot])
    minus_l = ring.zero()
    for i, c in enumerate(coeffs):
        if i != pivot and c:
            minus_l = minus_l + ring.var(ring.variables[i]).scale(field.from_int(-c))
    out = []
    for p in polys:
        top = max(map(sum, p.terms), default=0)
        scaled = Polynomial(ring, {m: field.mul(field.pow(a, top - m[pivot]), c)
                                   for m, c in field.rescale_terms(list(p.terms.items()))})
        out.append(scaled.substitute(pname, minus_l).drop_variable(pname))
    return out


def check_homogeneous_condition(H: PointSet, witnesses,
                                precomputed_memberships=None) -> VerificationReport:
    """Product-form criterion for a homogeneous witness pair, with e(S/I_H) = #H."""
    if not witnesses.both_homogeneous():
        raise NotHomogeneousError("both witnesses must be homogeneous for this check")
    field = H.field
    ring = base_ring(field)
    report = VerificationReport(config=None, field=field.spec.to_json(), seed=None)
    report.method = METHOD_HOMOGENEOUS
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
    e = len(H)
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
                              precomputed_memberships=None,
                              first: int | None = None) -> VerificationReport:
    """Length-equality criterion: local length of (u, xi1, xi2) vs r1*r2*#H.

    A given ``u`` that vanishes at a point of H raises InputError.
    ``first``, when given, is the first truncation degree N' of the length's
    DS runs in place of the one picked from rhs; it never changes the
    report (see ``local_length_at_origin``)."""
    field = H.field
    ring = base_ring(field)
    report = VerificationReport(config=None, field=field.spec.to_json(), seed=seed)
    report.method = METHOD_LENGTH

    t0 = time.monotonic()
    memberships = precomputed_memberships or membership_results(H, witnesses, ring)
    report.memberships = memberships
    report.timings_ms["memberships"] = _ms(t0)
    if not all(m["member"] for m in memberships):
        raise MembershipFailedError("witnesses are outside their symbolic powers")

    t0 = time.monotonic()
    if u is None:
        u = pick_generic_linear_form(H, seed)
    elif any(field.is_zero(u.polynomial.evaluate(P.coords)) for P in H):
        raise InputError("the linear form vanishes at a point of H")
    report.u = str(u.polynomial)
    report.seed = u.seed
    rhs = witnesses.r1 * witnesses.r2 * len(H)
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
        if first is None:
            first = _first_truncation(rhs)
        found = None
        if field.characteristic == 0:
            found = _local_length_mod_prime(J, cap, rhs, first)
        if found is None:
            lhs, stable_at = local_length_at_origin(J, cap, first)
        elif found[0] == rhs:
            lhs, stable_at = found
        else:
            # L <= L_p is finite, and its certificate degree d <= L <= L_p
            # lies below N' = L_p + 1.  The first run is at the F_p stable_at,
            # where a good prime certifies too; the counts below N' do not
            # depend on N', so growing N' after it cannot move stable_at.
            lhs, stable_at = _finite_local_length(J, min(cap, found[0] + 1), found[1])
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
    agree.  The second seed's DS runs start at the first seed's
    ``stable_at``: its own u gives an independent length, and since the
    counts below a truncation degree do not depend on it, the start changes
    neither that length nor its ``stable_at``.  When both seeds share the
    certificate degree (every built-in configuration) the confirmation is
    one DS run and pays no INFINITE gate.  A verified report certifies
    finite generation of the symbolic Rees ring; a non-established one
    proves nothing either way.  Each stage is timed where it runs; the
    confirmation seed's run is the one entry ``timings_ms["confirmation"]``.
    """
    t_total = time.monotonic()
    H = config.points
    witnesses = config.witnesses
    ring = config.ring
    stages = {}
    t0 = time.monotonic()
    memberships = membership_results(H, witnesses, ring)
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
        report = check_homogeneous_condition(H, witnesses,
                                             precomputed_memberships=memberships)
    else:
        report = check_condition_by_length(H, witnesses, seed=seed, cap=cap,
                                           precomputed_memberships=memberships)
        t0 = time.monotonic()
        second = check_condition_by_length(H, witnesses, seed=seed + 1, cap=cap,
                                           precomputed_memberships=memberships,
                                           first=report.lengths.get("stable_at"))
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
