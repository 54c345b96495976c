"""Outside-in tracing of the symrees layers for the traced benchmark passes.

Wrappers are installed at the import sites where one layer calls the next
(``symrees.verifier.lead_monomial_basis``, ``symrees.ideals.reduced_groebner_basis``,
``symrees.configs.points_ideal``, ...), on a few class methods, and on the
instance attributes of each job's field object.  Nothing under ``src/`` is
edited.  Every wrapper records a span ``[name, start, end, parent, job]`` and
its counts; spans stay in memory and are written out when the run ends.
Field operations are far too frequent for spans, so they are only counted,
and a strided sample of ``mul`` operand pairs is kept for a replay timing.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref
from collections import Counter

# span names start with one of these; self time is summed per module
MODULES = ("verifier", "groebner", "ideals", "points", "polynomials", "configs", "cli", "parsing")

MUL_SAMPLE = 2048      # the fields.mul.ns replay keeps 2048 to 4095 operand pairs
REPLAY_REPEATS = 7


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self.nested = []         # True where an enclosing span has the same name
        self.counts = Counter()
        self.maxima = Counter()
        self.job = None
        self._stack = []
        self._active = Counter()
        self._patches = []
        self._seen_keys = weakref.WeakKeyDictionary()
        self._fields = []
        self._stride = 1
        self._mul_calls = 0
        self.mul_sample = []     # (original mul, a, b)

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as a span; ``after(result, args, kwargs, seconds)`` adds counts."""
        spans, nested, stack, active = self.spans, self.nested, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            nested.append(active[name] > 0)
            stack.append(idx)
            active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                active[name] -= 1
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:
                after(result, args, kwargs, t1 - t0)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` from the benchmark's own call site as a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr, name, after=None):
        self.patch(owner, attr, self.wrap(name, owner.__dict__[attr], after))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the installed wrappers ----------------------------------------------

    def install(self):
        """Wrap every layer boundary; ``restore`` undoes it."""
        import symrees.cli as cli
        import symrees.configs as configs
        import symrees.groebner as groebner
        import symrees.ideals as ideals
        import symrees.points as points
        import symrees.polynomials as polynomials
        import symrees.verifier as verifier

        count, maxima = self.counts, self.maxima

        def after_verify(report, args, kwargs, seconds):
            staged = sum(v for k, v in report.timings_ms.items() if k != "total") / 1000.0
            count["verifier.unattributed_s"] += seconds - staged

        def after_truncated(leads, args, kwargs, seconds):
            degree = kwargs.get("truncate_degree") or args[2]
            count["verifier.truncation_degree.sum"] += degree
            maxima["verifier.truncation_degree.max"] = max(
                maxima["verifier.truncation_degree.max"], degree)
            count["groebner.truncated.leads"] += len(leads)

        def after_local_length(result, args, kwargs, seconds):
            if result[1] is not None:
                count["verifier.stable_at"] += result[1]

        def after_linear_form(u, args, kwargs, seconds):
            count["verifier.linear_form.draws"] += u.draws + 1

        def after_reduced(gb, args, kwargs, seconds):
            count["groebner.reduced.basis_len"] += len(gb)

        verify = self.wrap("verifier.verify", verifier.verify, after_verify)
        self.patch(verifier, "verify", verify)
        self.patch(cli, "verify", verify)
        self.patch_span(verifier, "local_length_at_origin", "verifier.local_length",
                        after_local_length)
        self.patch_span(verifier, "pick_generic_linear_form", "verifier.linear_form",
                        after_linear_form)
        self.patch_span(verifier, "membership_results", "verifier.memberships")
        self.patch_span(verifier, "lead_monomial_basis", "groebner.truncated", after_truncated)
        self.patch_span(ideals, "reduced_groebner_basis", "groebner.reduced", after_reduced)
        self.patch_span(groebner, "normal_form", "groebner.normal_form")
        self.patch_span(ideals.Ideal, "intersect", "ideals.intersect")
        self.patch_span(ideals.Ideal, "vector_space_dimension", "ideals.colength")
        self.patch_span(ideals.Ideal, "hilbert_multiplicity", "ideals.hilbert")
        self.patch_span(ideals.Ideal, "height", "ideals.height")
        points_ideal = self.wrap("points.points_ideal", points.points_ideal)
        self.patch(configs, "points_ideal", points_ideal)
        self.patch(verifier, "points_ideal", points_ideal)
        membership = self.wrap("points.membership", points.symbolic_power_membership)
        self.patch(verifier, "symbolic_power_membership", membership)
        self.patch(cli, "symbolic_power_membership", membership)
        self.patch_span(cli, "symbolic_power_ideal", "points.symbolic_power_ideal")
        self.patch(points.PointPowerCache, "basis",
                   self._counted_cache_basis(points.PointPowerCache.basis))
        poly_mul = self.wrap("polynomials.mul", polynomials.Polynomial.__mul__)
        self.patch(polynomials.Polynomial, "__mul__", poly_mul)
        self.patch(polynomials.Polynomial, "__rmul__", poly_mul)

        def after_load(cfg, args, kwargs, seconds):
            self.instrument_field(cfg.field)

        self.patch_span(cli, "load_configuration", "configs.build", after_load)
        self.patch_span(cli, "run", "cli.run")
        self.patch_span(cli, "parse_polynomial", "parsing.parse_polynomial")

    def _counted_cache_basis(self, basis):
        count, seen_keys = self.counts, self._seen_keys

        def counted(cache, point, r):
            seen = seen_keys.setdefault(cache, set())
            count["points.power_cache.calls"] += 1
            if (point, r) in seen:
                count["points.power_cache.hits"] += 1
            else:
                seen.add((point, r))
            return basis(cache, point, r)

        return counted

    # -- field instances ---------------------------------------------------------

    def instrument_field(self, field):
        """Count scalar operations on one field object through instance attributes."""
        if any(f is field for f in self._fields):
            return
        self._fields.append(field)
        count, maxima, sample = self.counts, self.maxima, self.mul_sample
        mul, add, inv, rescale = field.mul, field.add, field.inv, field.rescale_terms
        tracer = self

        def counted_mul(a, b):
            tracer._mul_calls += 1
            if tracer._mul_calls % tracer._stride == 0:
                sample.append((mul, a, b))
                if len(sample) >= 2 * MUL_SAMPLE:
                    del sample[::2]  # keep the calls at multiples of the doubled stride
                    tracer._stride *= 2
            return mul(a, b)

        def counted_add(a, b):
            count["fields.add.calls"] += 1
            return add(a, b)

        def counted_inv(a):
            count["fields.inv.calls"] += 1
            return inv(a)

        def counted_rescale(items):
            count["fields.rescale.calls"] += 1
            bits = maxima["fields.coeff_bits.max"]
            for _, c in items:
                for x in (c if isinstance(c, tuple) else (c,)):
                    if isinstance(x, int):
                        b = abs(x).bit_length()
                    else:
                        b = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                    if b > bits:
                        bits = b
            maxima["fields.coeff_bits.max"] = bits
            return rescale(items)

        field.mul, field.add, field.inv = counted_mul, counted_add, counted_inv
        field.rescale_terms = counted_rescale
        if field.characteristic:
            # prime-field scalars are residues below p and are never rescaled
            maxima["fields.coeff_bits.max"] = max(
                maxima["fields.coeff_bits.max"], field.characteristic.bit_length())

    def mul_replay_ns(self):
        """Median time of one ``mul`` over the captured operand sample, in ns."""
        sample = self.mul_sample
        if not sample:
            return 0.0
        per_call = []
        for _ in range(REPLAY_REPEATS):
            t0 = time.perf_counter()
            for mul, a, b in sample:
                mul(a, b)
            per_call.append((time.perf_counter() - t0) / len(sample) * 1e9)
        return statistics.median(per_call)

    # -- derived metrics ---------------------------------------------------------

    def layer_metrics(self):
        """Per-layer times and counts of this pass, keyed by metric name."""
        calls = Counter()
        inclusive = Counter()
        child_time = [0.0] * len(self.spans)
        for idx, (name, t0, t1, parent, _) in enumerate(self.spans):
            calls[name] += 1
            if not self.nested[idx]:
                inclusive[name] += t1 - t0
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_time = Counter()
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            self_time[name.split(".")[0]] += (t1 - t0) - child_time[idx]

        c, m = self.counts, self.maxima
        cache_calls = c["points.power_cache.calls"]
        out = {
            "verifier.verify.s": inclusive["verifier.verify"],
            "verifier.local_length.s": inclusive["verifier.local_length"],
            "verifier.truncations": calls["groebner.truncated"],
            "verifier.truncation_degree.max": m["verifier.truncation_degree.max"],
            "verifier.truncation_degree.sum": c["verifier.truncation_degree.sum"],
            "verifier.linear_form.s": inclusive["verifier.linear_form"],
            "verifier.linear_form.draws": c["verifier.linear_form.draws"],
            "verifier.memberships.s": inclusive["verifier.memberships"],
            "verifier.stable_at": c["verifier.stable_at"],
            "verifier.unattributed_s": c["verifier.unattributed_s"],
            "groebner.truncated.calls": calls["groebner.truncated"],
            "groebner.truncated.s": inclusive["groebner.truncated"],
            "groebner.truncated.leads": c["groebner.truncated.leads"],
            "groebner.reduced.calls": calls["groebner.reduced"],
            "groebner.reduced.s": inclusive["groebner.reduced"],
            "groebner.reduced.basis_len": c["groebner.reduced.basis_len"],
            "groebner.normal_form.calls": calls["groebner.normal_form"],
            "groebner.normal_form.s": inclusive["groebner.normal_form"],
            "fields.mul.calls": self._mul_calls,
            "fields.add.calls": c["fields.add.calls"],
            "fields.inv.calls": c["fields.inv.calls"],
            "fields.rescale.calls": c["fields.rescale.calls"],
            "fields.coeff_bits.max": m["fields.coeff_bits.max"],
            "ideals.intersect.calls": calls["ideals.intersect"],
            "ideals.intersect.s": inclusive["ideals.intersect"],
            "ideals.colength.s": inclusive["ideals.colength"],
            "ideals.hilbert.s": inclusive["ideals.hilbert"],
            "ideals.height.s": inclusive["ideals.height"],
            "points.points_ideal.s": inclusive["points.points_ideal"],
            "points.membership.s": inclusive["points.membership"],
            "points.power_cache.hit_ratio": (
                c["points.power_cache.hits"] / cache_calls if cache_calls else 0.0),
            "points.symbolic_power_ideal.s": inclusive["points.symbolic_power_ideal"],
            "polynomials.mul.calls": calls["polynomials.mul"],
            "polynomials.mul.s": inclusive["polynomials.mul"],
            "configs.build.s": inclusive["configs.build"],
            "cli.run.s": inclusive["cli.run"],
            "parsing.parse_polynomial.s": inclusive["parsing.parse_polynomial"],
            "trace.spans": len(self.spans),
        }
        for module in MODULES:
            out[f"{module}.self_s"] = self_time[module]
        return out
