import dataclasses
import sys

import pytest

from hgxbench import trace
from hgxbench.csbm import CsbmSpec, EdgeSizeLaw, generate
from hgxbench.refclock import ReferenceKernel
from hgxbench.run import train
from hgxbench.workloads import WORKLOADS, Trainer

SMALL = CsbmSpec(n=120, m=60, classes=7, features=16, homophily=0.9,
                 feature_snr=4.0, sizes=EdgeSizeLaw("poisson", 1.6))


REF = ReferenceKernel()


def small(name):
    return dataclasses.replace(WORKLOADS[name], graph=SMALL, steps=3)


def _snapshot():
    """Every attribute of every hgx module and shimmed class."""
    owners = [m for n, m in sys.modules.items() if n == "hgx" or n.startswith("hgx.")]
    owners += [o for o, *_ in trace._shims(trace.Tracer()) if isinstance(o, type)]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_remove_restores_every_original():
    before = _snapshot()
    with trace.installed(trace.Tracer()):
        during = _snapshot()
        changed = [
            a for key, (_, attrs) in before.items()
            for a, v in attrs.items() if during[key][1].get(a) is not v
        ]
        assert set(trace.OPS) <= set(changed)
        assert {"incidence_pairs", "degrees", "backward", "v2e_forward"} <= set(changed)
    after = _snapshot()
    for key, (owner, attrs) in before.items():
        for attr, value in attrs.items():
            assert after[key][1][attr] is value, (owner, attr)


def test_remove_restores_after_an_error():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with trace.installed(trace.Tracer()):
            raise RuntimeError("boom")
    after = _snapshot()
    for key, (_, attrs) in before.items():
        assert all(after[key][1][a] is v for a, v in attrs.items())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_scopes_fit_inside_the_step(name):
    w = small(name)
    tracer = trace.Tracer()
    with trace.installed(tracer):
        result = train(Trainer(w, generate(w.graph, 0), 0), w.steps, 0.0, REF, tracer=tracer)
    spans = tracer.spans
    steps = [i for i, s in enumerate(spans) if s[0] == "step"]
    assert len(steps) == w.steps == tracer.steps
    for i in steps:
        _, start, end, _, step = spans[i]
        children = [s for s in spans if s[3] == i]
        assert children
        for _, cs, ce, _, cstep in children:
            assert start <= cs <= ce <= end and cstep == step
        assert sum(ce - cs for _, cs, ce, _, _ in children) <= end - start
    total_step_s = sum(result["step_s"])
    assert tracer.backward_s + tracer.fwd_s["optim.adam"] <= total_step_s
    assert 0.0 <= tracer.backward_overhead_s <= tracer.backward_s
    for scope, seconds in tracer.scope_bwd_s().items():
        assert seconds <= tracer.backward_s, scope
    for key, seconds in tracer.fwd_s.items():
        assert seconds <= total_step_s, key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_keeps_losses_bit_identical(name):
    w = small(name)
    data = generate(w.graph, 0)
    plain = train(Trainer(w, data, 0), w.steps, 0.0, REF)
    tracer = trace.Tracer()
    with trace.installed(tracer):
        traced = train(Trainer(w, data, 0), w.steps, 0.0, REF, tracer=tracer)
    assert traced["losses"] == plain["losses"]
    assert tracer.vjp_calls > 0 and tracer.tensors > 0
