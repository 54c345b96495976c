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
grows only when no such degree lies below it.  Bezout's deg xi1 * deg xi2
(of the eliminated pair) bounds a finite length, and every colength is at
most the length, so a colength above the bound proves it infinite; one of
the two happens by N' = bound + 1.  A ``cap`` is an optional smaller budget.

Over Q or Q(zeta_n) the length is first proved modulo a degree-one prime P
of Z[zeta_n] over p >= 2^30.  M_N = O_P[x,y]/(f, g, m^N) is a finitely
generated module over the DVR O_P, so dim_K(J + m^N) <= dim_F_p(J_P + m^N)
for every N and the char-0 length is at most the F_p length L_p; Huneke
(Michigan Math. J. 34, 1987) gives lhs >= rhs, so L_p = rhs proves lhs = rhs.
Any other L_p (an unlucky prime, or lhs > rhs) falls back to the exact
char-0 route, whose first run is at the F_p certificate degree; a finite
L_p bounds its length, and a larger one raises InvariantError.
``stable_at`` is the degree of whichever certificate proved the length.

``verify`` proves the length again with the next seed's u as a
confirmation (``_length``: no gate, no report), started at the
``stable_at`` the first seed proved.  The counts below N' do not depend on
N', so the start cannot change the confirmation's length or its
``stable_at``: it only decides how many runs it takes, one when its
certificate degree is at most the first seed's.

Each route starts at one gate, ``_gated_report``: it checks and times the
memberships xi_i in I^(r_i), and a witness outside gives the route's
not-established report with nothing else run.  No other code computes a
membership, so a ``verify`` computes them once.

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
        out = dict(vars(self))
        if self.lengths is not None:
            out["lengths"] = {
                k: ("Infinite" if v == INFINITE else v) for k, v in self.lengths.items()
            }
        return out


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


def _lines_over(H, seed):
    """The lines of the plane over F_q that can avoid H, one at a time, in one
    fixed cyclic order of all of them, (a, b, 1), (a, 1, 0) and (1, 0, 0),
    entered at position seed mod (q^2 + q + 1).  The lines (a, b, 1) with a
    fixed all pass through (1 : 0 : -a), and the lines (a, 1, 0) through
    (0 : 0 : 1); a family whose common point is in H is skipped whole."""
    field = H.field
    q = field.characteristic
    blocked, through_origin = set(), False  # the a of the families (a, b, 1) through H
    for x, y, z in (P.coords for P in H):
        if not field.is_zero(y):
            continue
        if field.is_zero(x):
            through_origin = True           # (0 : 0 : 1) is in H
        else:
            blocked.add(0 if field.is_zero(z) else field.neg(field.inv(x)))
    total = q * q + q + 1
    n = seed % total
    end = n + total
    while n < end:
        k = n % total
        if k < q * q:
            a, b = divmod(k, q)
            if a in blocked:
                n += q - b
                continue
            yield (a, b, 1)
        elif k < total - 1:
            if through_origin:
                n += total - 1 - k
                continue
            yield (k - q * q, 1, 0)
        else:
            yield (1, 0, 0)
        n += 1


def pick_generic_linear_form(H: PointSet, seed: int) -> GenericLinearForm:
    """Draw u = a*x + b*y + c*z with small integer coefficients from the seed.

    Accepted as soon as u vanishes at no point of H: I_H is radical (distinct
    rational points) and S/I_H Cohen-Macaulay, so such a u is a
    nonzerodivisor and dim_K S/(uS + I_H) = #H.  Up to 32 draws; over F_q
    the lines of the plane follow them, so GenericityExhaustedError there
    means no line over F_q avoids H (tiny prime fields can be blocked that
    way).  Each point off the common point of a family of lines lies on one
    line of it, so when q > #H a free line turns up within #H + 1 lines of
    the first family whose common point is not in H, and the walk is short
    whatever q is.
    """
    field = H.field
    ring = base_ring(field)
    q = field.characteristic
    candidates = _seeded_draws(seed)
    if q:
        candidates = itertools.chain(candidates, _lines_over(H, seed))
    for draw, coeffs in enumerate(candidates):
        u = ring.zero()
        for name, c in zip(("x", "y", "z"), coeffs):
            if c:
                u = u + ring.var(name).scale(field.from_int(c))
        if u.is_zero():
            continue  # coefficients can collapse mod p
        if not any(field.is_zero(u.evaluate(P.coords)) for P in H):
            return GenericLinearForm(u, coeffs, seed, draw)
    if q:
        raise GenericityExhaustedError(
            f"none of the {q * q + q + 1} lines over F_{q} avoids the {len(H)} points"
        )
    raise GenericityExhaustedError(
        f"no acceptable linear form in {GENERIC_FORM_DRAWS} draws from seed {seed}"
    )


# --- local length by m-adic truncation ----------------------------------------------


def _local_standard_counts(gens, ring, n):
    """Standard monomials of J + m^n under DS, counted by degree 0..n-1: the
    colength of J + m^N for any N <= n is the sum of the first N counts.
    m^n is left implicit: the run drops every term of degree >= n, so it
    computes in S/m^n.  A J inside m^n leaves no lead, and then every
    monomial below degree n is standard: J + m^n = m^n."""
    leads = lead_monomial_basis(gens, order=DS, truncate_degree=n - 1)
    return [standard_count(leads, ring.nvars, d) for d in range(n)]


def _first_truncation(target):
    """The first N' for an expected length ``target``: twice the least n with
    (n-1)n/2 >= target, the least N' whose colength can reach target in two
    variables.  A DS run past its certificate degree costs little (its
    reductions stop at each remainder's lead), so the first N' overshoots:
    every built-in configuration certifies in that one run."""
    n = 2
    while (n - 1) * n // 2 < target:
        n += 1
    return 2 * n


def local_length_at_origin(J: Ideal, cap: int | None = None, first: int = 2):
    """Length of the localization at the irrelevant maximal ideal, or INFINITE.

    Returns ``(length, stable_at)``.  One standard basis of J in S/m^N'
    under the local order DS is computed, every term of degree >= N' dropped
    (Greuel-Pfister, A Singular Introduction to Commutative Algebra, 1.6-1.7;
    Mora's tangent cone algorithm).  It is finite, and its lead monomials
    and m^N' span in(J + m^N').

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
    quarter from ``first`` (a run's cost grows with N').

    J is the verifier's shape: one or two generators in two variables (none
    gives INFINITE); any other J raises InputError.  For J = (f, g) a finite
    length is I_0(f, g) <= deg f * deg g (Bezout, Fulton, Algebraic Curves,
    5.3).  A single f (u divides a witness) has a finite length only when
    f(0) != 0, and then it is 0, so any bound holds; deg f * deg f is taken.
    S/(J + m^N') is local at the origin and a quotient of the localization,
    so colength(N') is at most the length: a colength above the bound proves
    the length INFINITE.  Without a certificate every degree below N' holds
    a standard monomial, so colength(N') >= N', and at N' = bound + 1 a run
    either certifies or proves INFINITE.  A smaller ``cap`` is a budget:
    CapExceededError.

    ``first`` is the first N'.  ``check_condition_by_length`` picks it from
    the expected length (``_first_truncation``), and the confirmation seed of
    ``verify`` passes the ``stable_at`` the first seed proved.  It does not
    affect the value: the standard-monomial counts below N' do not depend on
    N', so every schedule finds the same least degree d without one, or the
    same least N' whose colength passes the bound.  A first N' at or above
    d + 1 certifies in one run; one below it fails, and N' grows by a
    quarter as from any other first run.
    """
    ring, gens = J.ring, J.generators
    if not gens:
        return INFINITE, None
    if ring.nvars != 2 or len(gens) > 2:
        raise InputError("a local length needs one or two generators in two variables")
    if cap is not None and cap < 3:
        raise InputError("the truncation cap must be at least 3")
    bound = gens[0].total_degree() * gens[-1].total_degree()
    stop = bound + 1 if cap is None else min(cap, bound + 1)
    n = min(first, stop)
    while True:
        counts = _local_standard_counts(gens, ring, n)
        if 0 in counts:
            d = counts.index(0)
            return sum(counts[:d]), d + 1
        if sum(counts) > bound:
            return INFINITE, None
        if n >= stop:
            raise CapExceededError(f"no stabilization up to the cap N = {cap}")
        n = min(n + max(1, n // 4), stop)


def _local_length_mod_prime(J: Ideal, cap, rhs: int, first: int):
    """The local length L_p of J modulo a prime, with its ``stable_at``,
    when it is finite; None when it is not.

    The generators are made integral and reduced modulo the degree-one prime
    P of ``field.reduction_mod_prime``; ``local_length_at_origin`` then runs
    unchanged over F_p, from N' = ``first``.  Its length L_p bounds the
    char-0 length L from above, so L_p = rhs, with Huneke's
    L >= rhs, proves L = rhs; the ``stable_at`` is then the degree of that
    F_p certificate.  A larger L_p (an unlucky prime, or L > rhs) still
    bounds L, and the caller checks its exact length against it.  An
    INFINITE L_p (also what a generator that vanishes mod P gives), or a
    ``cap`` exceeded over F_p, proves nothing: None.  L_p < rhs contradicts
    L_p >= L >= rhs and raises InvariantError.
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


def _eliminate_along(u: GenericLinearForm, polys):
    """Substitute away the largest-coefficient variable of u; returns 2-variable images.

    The pivot is the variable whose coefficient a is largest in absolute value
    among those nonzero in the field.  Fraction-free: with u = a*x_p + l, xi is
    scaled to integer content one, each of its terms of x_p-degree e is
    multiplied by a^(deg xi - e), and x_p is replaced by -l.  The image is a
    nonzero scalar multiple of xi(x_p = -l/a), so the ideal and every length
    stay the same, and over Q and Q(zeta_n) its coordinates are integers.

    The image is built on the exponent pairs (i, j) of the two other
    variables v, w.  The scaled terms are grouped by their x_p-degree e, and
    Horner's rule runs in x_p from the top e down: the accumulator is
    multiplied by -l = b_v*v + b_w*w, one shifted copy per nonzero b, and
    the group of e is added.
    """
    coeffs = u.int_coefficients
    ring = polys[0].ring
    field = ring.field
    add, mul, is_zero = field.add, field.mul, field.is_zero
    pivot = max((i for i in range(3) if not field.is_zero(field.from_int(coeffs[i]))),
                key=lambda i: (abs(coeffs[i]), i))
    v, w = (i for i in range(3) if i != pivot)
    plane = PolyRing(field, (ring.variables[v], ring.variables[w]))
    a = field.from_int(coeffs[pivot])
    bv, bw = field.from_int(-coeffs[v]), field.from_int(-coeffs[w])
    steps = [(di, dj, b) for di, dj, b in ((1, 0, bv), (0, 1, bw)) if not is_zero(b)]
    out = []
    for p in polys:
        top = max(map(sum, p.terms), default=0)
        groups = {}
        for m, c in field.rescale_terms(list(p.terms.items())):
            groups.setdefault(m[pivot], []).append(((m[v], m[w]), c))
        acc = {}
        for e in range(max(groups, default=-1), -1, -1):
            scale = field.pow(a, top - e)
            nxt = {key: mul(scale, c) for key, c in groups.get(e, ())}
            for (i, j), c in acc.items():
                for di, dj, b in steps:
                    key = (i + di, j + dj)
                    t = mul(c, b)
                    if key in nxt:
                        t = add(nxt[key], t)
                        if is_zero(t):
                            del nxt[key]
                            continue
                    nxt[key] = t
            acc = nxt
        out.append(Polynomial(plane, acc))
    return out


def _gated_report(H: PointSet, witnesses, method, seed):
    """A route's report with the witnesses' memberships, and whether both hold.

    The memberships are computed and timed here.  The criterion applies only
    to xi_i in the r_i-th symbolic power, so when a witness is outside the
    report says so and stays not established, and the route returns it as
    it is."""
    report = VerificationReport(config=None, field=H.field.spec.to_json(), seed=seed)
    report.method = method
    t0 = time.monotonic()
    report.memberships = membership_results(H, witnesses, witnesses.xi1.ring)
    report.timings_ms["memberships"] = _ms(t0)
    held = all(m["member"] for m in report.memberships)
    if not held:
        report.notes.append("a witness failed its symbolic-power membership")
    return report, held


def check_homogeneous_condition(H: PointSet, witnesses) -> VerificationReport:
    """Product-form criterion for a homogeneous witness pair, with e(S/I_H) = #H."""
    if not witnesses.both_homogeneous():
        raise NotHomogeneousError("both witnesses must be homogeneous for this check")
    report, held = _gated_report(H, witnesses, METHOD_HOMOGENEOUS, None)
    if not held:
        return report

    t0 = time.monotonic()
    height = Ideal([witnesses.xi1, witnesses.xi2], ring=base_ring(H.field)).height()
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


def _length(witnesses, u: GenericLinearForm, rhs: int, cap, first: int):
    """``(lhs, stable_at)``: the proved local length of S/(u, xi1, xi2) at
    the origin.  Over Q or Q(zeta_n) the length L_p modulo a prime comes
    first, from N' = ``first``, and L_p = rhs proves it.  Otherwise one
    exact run follows, from the F_p ``stable_at`` when L_p was finite (a good
    prime certifies there too), else from ``first``.  L > L_p or L < rhs
    (Huneke) is a bug: InvariantError."""
    xi1s, xi2s = _eliminate_along(u, [witnesses.xi1, witnesses.xi2])
    J = Ideal([xi1s, xi2s], ring=xi1s.ring)  # no generator if u divides both
    found = None
    if xi1s.ring.field.characteristic == 0:
        found = _local_length_mod_prime(J, cap, rhs, first)
        if found is not None and found[0] == rhs:
            return found
    lhs, stable_at = local_length_at_origin(J, cap, first if found is None else found[1])
    if found is not None and lhs > found[0]:
        raise InvariantError(f"the local length {lhs} exceeds its bound {found[0]} mod a prime")
    if lhs != INFINITE and lhs < rhs:
        raise InvariantError(
            f"computed local length {lhs} fell below the certified bound {rhs}"
        )
    return lhs, stable_at


def check_condition_by_length(H: PointSet, witnesses, u: GenericLinearForm | None = None,
                              seed: int = 0, cap: int | None = None) -> VerificationReport:
    """Length-equality criterion: local length of (u, xi1, xi2) vs r1*r2*#H.

    A given ``u`` that vanishes at a point of H raises InputError.  A
    witness outside its symbolic power leaves the not-established report
    with no length and nothing else run.  The length's DS runs start at the
    N' picked from rhs (``_first_truncation``)."""
    field = H.field
    report, held = _gated_report(H, witnesses, METHOD_LENGTH, seed)
    if not held:
        return report

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
    lhs, stable_at = _length(witnesses, u, rhs, cap, _first_truncation(rhs))
    report.timings_ms["local_length"] = _ms(t0)
    report.lengths = {"lhs": lhs, "rhs": rhs}
    if stable_at is not None:
        report.lengths["stable_at"] = stable_at
    report.verdict = VERDICT_VERIFIED if lhs == rhs else VERDICT_NOT_ESTABLISHED
    return report


def verify(config, seed: int = 0, cap: int | None = None) -> VerificationReport:
    """Full verification of a configuration's witness pair.

    Routes homogeneous pairs through the product check, everything else
    through the length check, whose length is then proved again with the
    next seed's u, from the first seed's ``stable_at`` (module docstring);
    the two verdicts must agree.  A ``cap`` below 3 is bad input on either
    route, refused before any work.  A witness outside its symbolic power
    ends the run with the route's not-established report.  A verified
    report certifies finite generation of the symbolic Rees ring; a
    non-established one proves nothing either way.  Each stage is timed
    where it runs; the confirmation is ``timings_ms["confirmation"]``.
    """
    if cap is not None and cap < 3:
        raise InputError("the truncation cap must be at least 3")
    t_total = time.monotonic()
    H = config.points
    witnesses = config.witnesses
    if witnesses.both_homogeneous():
        report = check_homogeneous_condition(H, witnesses)
    else:
        report = check_condition_by_length(H, witnesses, seed=seed, cap=cap)
    report.config = config.provenance
    report.seed = seed
    held = all(m["member"] for m in report.memberships)  # else the route's report as it is
    if held and report.method == METHOD_LENGTH:
        t0 = time.monotonic()
        rhs = report.lengths["rhs"]
        u = pick_generic_linear_form(H, seed + 1)
        lhs, _ = _length(witnesses, u, rhs, cap,
                         report.lengths.get("stable_at", _first_truncation(rhs)))
        verdict = VERDICT_VERIFIED if lhs == rhs else VERDICT_NOT_ESTABLISHED
        report.timings_ms["confirmation"] = _ms(t0)
        if verdict != report.verdict:
            raise InvariantError("verdicts disagree across seeds")
        report.confirmation = {
            "seed": u.seed,
            "u": str(u.polynomial),
            "lhs": "Infinite" if lhs == INFINITE else lhs,
            "verdict": verdict,
        }
    if held:
        if config.field.characteristic:
            report.notes.append("characteristic-p check")
        if report.method == METHOD_LENGTH:
            report.notes.append("length route restricted to validated general linear forms")
        if report.verdict == VERDICT_VERIFIED:
            report.notes.append("criterion verified: the symbolic Rees ring is finitely generated")
        else:
            report.notes.append("criterion not established by this witness pair (not a disproof)")
    report.timings_ms["total"] = _ms(t_total)
    return report
