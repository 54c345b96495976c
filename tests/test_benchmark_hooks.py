"""The benchmark's tracer wraps symrees at its import sites by name; a rename
under src/ must fail here rather than only when the benchmark runs."""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    t = Tracer()
    yield t
    t.restore()


def test_tracer_installs_and_restores(tracer):
    import symrees.cli
    import symrees.groebner
    import symrees.verifier

    originals = (symrees.verifier.verify, symrees.groebner.normal_form, symrees.cli.run)
    tracer.install()
    assert symrees.verifier.verify is not originals[0]
    assert symrees.cli.run(["verify-three-points"]) == 0
    names = {span[0] for span in tracer.spans}
    # memberships go by order of vanishing, so no normal form is taken; the
    # wrapper on groebner.normal_form is still installed and restored
    assert {"cli.run", "configs.build", "verifier.verify", "points.membership"} <= names
    tracer.restore()
    assert (symrees.verifier.verify, symrees.groebner.normal_form, symrees.cli.run) == originals


def test_tracer_sees_the_length_route(tracer):
    import symrees.cli

    tracer.install()
    assert symrees.cli.run(["verify-grid", "--m", "2", "--n", "2"]) == 0
    names = {span[0] for span in tracer.spans}
    # over Q the length comes from a run modulo a prime, which must still
    # go through the wrapped local_length_at_origin and lead_monomial_basis
    assert {"verifier.local_length", "groebner.truncated"} <= names


def test_truncated_runs_pass_their_degree_by_keyword(monkeypatch):
    # the tracer reads a run's N' from kwargs["truncate_degree"]
    from symrees import verifier
    from symrees.configs import grid_example

    calls = []
    leads = verifier.lead_monomial_basis

    def logged(*args, **kwargs):
        calls.append(kwargs)
        return leads(*args, **kwargs)

    monkeypatch.setattr(verifier, "lead_monomial_basis", logged)
    assert verifier.verify(grid_example(2, 2)).verdict == verifier.VERDICT_VERIFIED
    assert calls
    assert all(kwargs.get("truncate_degree", 0) > 0 for kwargs in calls)
