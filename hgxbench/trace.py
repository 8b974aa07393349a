"""Outside-in tracing of hgx, installed from the benchmark's own files.

:func:`installed` swaps shims in for the hgx functions and methods named
in :data:`OPS` and :data:`SCOPES`, everywhere an hgx module holds a
reference to them, and puts every original back on exit.  The shims
only time and count; they pass every argument and result through
unchanged, so a traced run computes bit-identical values.

* An autodiff primitive's shim times the forward call (self time, since
  primitives do not call each other) and replaces the returned tensor's
  vector-Jacobian closures with timed wrappers tagged with the op family
  and with the scopes open when the op ran.  Backward time is thereby
  attributed to ops and scopes without touching ``src/``.
* A scope shim opens a span named after the layer.  The layers' own
  prefix strings give the names (``layer0.v2e`` becomes
  ``allset.layer0.v2e``; the ``proj`` and ``head`` MLPs become
  ``nn.proj`` and ``nn.head``).  Scope numbers are inclusive.

Recording happens only between :meth:`Tracer.begin_step` and
:meth:`Tracer.end_step`; outside a step the shims call straight through.
Spans (name, start, end, parent, step) stay in memory until
:meth:`Tracer.spans_json` is asked for them.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from hgx import allset, hypergraph, nn, optim, rules
from hgx import autodiff as ad

OP_FAMILIES = {
    "gather_rows": ("gather_rows",),
    "segment_sum": ("segment_sum",),
    "segment_softmax": ("segment_softmax",),
    "matmul": ("matmul",),
    "elementwise": ("add", "sub", "mul", "div", "neg", "exp", "log", "sqrt",
                    "power", "relu", "leaky_relu", "elu"),
    "reduce": ("sum_all", "row_sum", "col_sum"),
    "concat_slice": ("concat_cols", "slice_cols"),
}
OPS = {name: family for family, names in OP_FAMILIES.items() for name in names}
RULES = ("hgnn", "hcha", "hnhn", "hypergcn", "hypersage")


def _prefix(args, kwargs, position: int, default: str) -> str:
    if "prefix" in kwargs:
        return kwargs["prefix"]
    return args[position] if len(args) > position else default


def _mlp_scope(args, kwargs) -> Optional[str]:
    prefix = _prefix(args, kwargs, 3, "")
    if prefix == "proj":
        return "nn.proj"
    if prefix == "head" or prefix.startswith("head."):
        return "nn.head"
    return None  # an MLP inside a pool belongs to its layer's scope


# (owner, attribute) -> function giving the scope name from the call's
# arguments; ``self`` is args[0] for methods.
SCOPES: Dict[tuple, Callable] = {
    (hypergraph, "incidence_pairs"): lambda a, k: "hypergraph.incidence",
    (hypergraph.Hypergraph, "degrees"): lambda a, k: "hypergraph.incidence",
    (hypergraph.Hypergraph, "edge_sizes"): lambda a, k: "hypergraph.incidence",
    (nn, "mlp_forward"): _mlp_scope,
    (nn, "layer_norm"): lambda a, k: "nn.layer_norm",
    (nn, "cross_entropy_loss"): lambda a, k: "nn.loss",
    (allset.AllSetLayer, "v2e_forward"):
        lambda a, k: f"allset.{_prefix(a, k, 5, 'layer')}.v2e",
    (allset.AllSetLayer, "e2v_forward"):
        lambda a, k: f"allset.{_prefix(a, k, 5, 'layer')}.e2v",
    (optim.AdamState, "step"): lambda a, k: "optim.adam",
    **{(rules, f"{r}_layer"): (lambda r: lambda a, k: f"rules.{r}")(r) for r in RULES},
}


class Tracer:
    """Counters and spans of one traced run."""

    def __init__(self):
        self.active = False
        self.step = -1
        self.steps = 0
        self._stack: List[str] = []
        self._key: tuple = ()
        self._span_stack: List[int] = []
        self.spans: List[list] = []  # [name, start, end, parent, step]
        self.calls: Dict[str, int] = defaultdict(int)
        self.fwd_s: Dict[str, float] = defaultdict(float)
        self.bwd_s: Dict[str, float] = defaultdict(float)
        self.fwd_bytes: Dict[str, int] = defaultdict(int)
        self._bwd_by_key: Dict[tuple, float] = defaultdict(float)
        self.tensors = 0
        self.vjp_calls = 0
        self._vjp_s = 0.0
        self.backward_s = 0.0
        self.backward_overhead_s = 0.0
        self.setup_s: List[float] = []  # from_edge_list durations, traced or not

    # -- steps and spans ----------------------------------------------------

    def begin_step(self, step: int) -> None:
        self.step = step
        self.active = True
        self._open("step")

    def end_step(self) -> None:
        self._close()
        self.active = False
        self.steps += 1

    def _open(self, name: str) -> None:
        parent = self._span_stack[-1] if self._span_stack else -1
        self._span_stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.step])

    def _close(self) -> float:
        span = self.spans[self._span_stack.pop()]
        span[2] = perf_counter()
        return span[2] - span[1]

    def _scoped(self, orig, scope_of):
        def shim(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            name = scope_of(args, kwargs)
            if name is None:
                return orig(*args, **kwargs)
            self._stack.append(name)
            self._key = tuple(self._stack)
            self._open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.fwd_s[name] += self._close()
                self.calls[name] += 1
                self._stack.pop()
                self._key = tuple(self._stack)
        return shim

    # -- autodiff -----------------------------------------------------------

    def _timed_vjp(self, vjp, family: str, key: tuple):
        def timed(g):
            t0 = perf_counter()
            out = vjp(g)
            dt = perf_counter() - t0
            self.bwd_s[family] += dt
            self._bwd_by_key[key] += dt
            self._vjp_s += dt
            self.vjp_calls += 1
            return out
        return timed

    def _op(self, orig, family: str):
        def shim(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            t0 = perf_counter()
            out = orig(*args, **kwargs)
            self.fwd_s[family] += perf_counter() - t0
            self.calls[family] += 1
            if family in ("gather_rows", "segment_sum"):
                # computed traffic: operand and index read once, output written once
                self.fwd_bytes[family] += (
                    args[0].value.nbytes + np.asarray(args[1]).nbytes + out.value.nbytes
                )
            out._vjps = tuple(self._timed_vjp(v, family, self._key) for v in out._vjps)
            return out
        return shim

    def _backward(self, orig):
        def shim(tensor):
            if not self.active:
                return orig(tensor)
            vjp_before = self._vjp_s
            self._open("autodiff.backward")
            try:
                return orig(tensor)
            finally:
                dt = self._close()
                self.backward_s += dt
                self.backward_overhead_s += dt - (self._vjp_s - vjp_before)
        return shim

    def _tensor_init(self, orig):
        def shim(tensor, *args, **kwargs):
            if self.active:
                self.tensors += 1
            orig(tensor, *args, **kwargs)
        return shim

    def _from_edge_list(self, orig):
        def shim(*args, **kwargs):
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.setup_s.append(perf_counter() - t0)
        return shim

    # -- results ------------------------------------------------------------

    def scope_bwd_s(self) -> Dict[str, float]:
        """Inclusive backward seconds per scope: each VJP's time counts
        toward every scope that was open when its op ran."""
        out: Dict[str, float] = defaultdict(float)
        for key, seconds in self._bwd_by_key.items():
            for name in set(key):
                out[name] += seconds
        return out

    def spans_json(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "step": st}
            for n, s, e, p, st in self.spans
        ]


def _shims(tracer: Tracer) -> List[tuple]:
    """(owner, attribute, original, shim) for every traced object."""
    out = [(ad, name, getattr(ad, name), tracer._op(getattr(ad, name), family))
           for name, family in OPS.items()]
    out += [(owner, attr, getattr(owner, attr), tracer._scoped(getattr(owner, attr), scope_of))
            for (owner, attr), scope_of in SCOPES.items()]
    out.append((ad.Tensor, "backward", ad.Tensor.backward,
                tracer._backward(ad.Tensor.backward)))
    out.append((ad.Tensor, "__init__", ad.Tensor.__init__,
                tracer._tensor_init(ad.Tensor.__init__)))
    out.append((hypergraph, "from_edge_list", hypergraph.from_edge_list,
                tracer._from_edge_list(hypergraph.from_edge_list)))
    return out


def _hgx_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "hgx" or name.startswith("hgx.")]


@contextmanager
def installed(tracer: Tracer):
    """Install the shims for ``tracer``; remove them on exit, even when
    the body raises."""
    replaced = []  # (owner, attribute, original)
    try:
        for owner, attr, orig, shim in _shims(tracer):
            # a module function may also be bound by name in other hgx
            # modules (``from .hypergraph import incidence_pairs``)
            owners = [owner] if isinstance(owner, type) else [
                m for m in _hgx_modules() if m.__dict__.get(attr) is orig
            ]
            for o in owners:
                replaced.append((o, attr, orig))
                setattr(o, attr, shim)
        yield tracer
    finally:
        for o, attr, orig in reversed(replaced):
            setattr(o, attr, orig)
