"""Closed-loop training benchmark for hgx.

Run from the repository root:

    python3 -m hgxbench.run --workload settransformer_cora --seed 1 \
        --seconds 20 --trace 0

Each epoch is one training step followed by one forward-only evaluation
of all nodes, in a single process with BLAS pinned to one thread.  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` a second, traced training run
follows the untraced one and the object holds the per-module metrics.
The exit code is 0 only when every correctness check passes.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hgxbench.refclock import ReferenceKernel, at_reference_speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21
TRACE_STEPS = 10  # traced epochs with --trace 1; per-module metrics average over them
GRAD_CHECK_ENTRIES = 6
GRAD_CHECK_H = 1e-7
# an entry passes when |analytic - numeric| <= ATOL + RTOL * |analytic| for
# the central difference or for one of the one-sided differences; a ReLU
# kink closer than h to the point can spoil only one side
GRAD_CHECK_ATOL = 1e-7
GRAD_CHECK_RTOL = 1e-4


# glibc mallopt parameters.  Setting them fixes the allocator's otherwise
# history-dependent choice between reusing heap memory and mapping fresh
# pages: without this, whether a step page-faults on its large temporaries
# depends on what was allocated before it, and the step time of a workload
# moved by about 10% from one seed to the next.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # glibc's maximum
TRIM_THRESHOLD = 1 << 30


def pin_allocator() -> dict:
    """Keep freed memory in the heap for reuse (arrays up to 32 MB), so
    every run reaches the same page-fault-free steady state."""
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return {"mallopt": "unavailable"}
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    ok = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return {"mallopt": "set" if ok else "refused", "mmap_threshold": MMAP_THRESHOLD,
            "trim_threshold": TRIM_THRESHOLD}


def _import_hgx():
    """hgx from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hgx" / "autodiff.py").is_file():
        raise SystemExit(f"hgx sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import hgx.autodiff

    if Path(hgx.autodiff.__file__).resolve().parent != SRC / "hgx":
        raise SystemExit(f"imported hgx from {hgx.autodiff.__file__}, not {SRC}")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def environment(seed: int, allocator: dict) -> dict:
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "allocator": allocator,
    }


def setup(workload, data, seed: int, ref: ReferenceKernel):
    """Build the model ``SETUP_REPEATS`` times, timing the reference
    kernel before the first build and after each one; returns the last
    build, the build times and the reference times, in seconds."""
    from hgxbench.workloads import Trainer

    times, ref_s = [], [ref.seconds()]
    trainer = None
    for _ in range(SETUP_REPEATS):
        trainer = None  # let the previous build go before timing the next
        gc.collect()
        t0 = time.perf_counter()
        trainer = Trainer(workload, data, seed)
        times.append(time.perf_counter() - t0)
        ref_s.append(ref.seconds())
    return trainer, times, ref_s


def train(trainer, steps: int, seconds: float, ref: ReferenceKernel,
          tracer=None) -> dict:
    """Closed loop of (step, evaluate) epochs: at least ``steps`` epochs
    and, when ``seconds`` > 0, until that much time has passed.  The
    reference kernel is timed before the first epoch and after each one.
    The validation accuracy is read after epoch ``steps``."""
    losses, step_s, eval_s, ref_s = [], [], [], [ref.seconds()]
    failed = 0
    val_acc = None
    start = time.perf_counter()
    while len(losses) < steps or time.perf_counter() - start < seconds:
        k = len(losses)
        if tracer is not None:
            tracer.begin_step(k)
        t0 = time.perf_counter()
        try:
            loss = trainer.step()
        except Exception:  # a step that raises counts as failed; keep going
            traceback.print_exc(file=sys.stderr)
            loss = float("nan")
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_step()
        acc = trainer.evaluate()
        t2 = time.perf_counter()
        losses.append(loss)
        failed += not (loss == loss and abs(loss) != float("inf"))
        step_s.append(t1 - t0)
        eval_s.append(t2 - t1)
        ref_s.append(ref.seconds())
        if len(losses) == steps:
            val_acc = acc
    return {"losses": losses, "step_s": step_s, "eval_s": eval_s, "ref_s": ref_s,
            "failed": failed, "val_acc": val_acc}


def peak_step_mb(trainer) -> float:
    """Peak bytes allocated during one extra, untimed training step."""
    tracemalloc.start()
    try:
        trainer.step()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def grad_check(trainer, seed: int) -> list:
    from hgxbench.workloads import grad_check as check

    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    rows = check(trainer, rng, GRAD_CHECK_ENTRIES, GRAD_CHECK_H)
    for r in rows:
        err = min(abs(r["analytic"] - n) for n in (r["central"], r["forward"], r["backward"]))
        r["ok"] = bool(err <= GRAD_CHECK_ATOL + GRAD_CHECK_RTOL * abs(r["analytic"]))
    return rows


def per_layer(tracer, traced_step_ms: float, untraced_step_ms: float) -> dict:
    """Per-module metrics per training step.  Module times are wall
    clock; the two step medians are at reference speed."""
    from hgxbench.trace import OP_FAMILIES, RULES

    steps = tracer.steps
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    ms = lambda seconds: seconds * 1e3 / steps  # noqa: E731
    bwd = tracer.scope_bwd_s()
    put("hypergraph.from_edge_list.ms", statistics.median(tracer.setup_s) * 1e3, "ms")
    put("hypergraph.incidence.calls", tracer.calls["hypergraph.incidence"] / steps, "count")
    put("hypergraph.incidence.ms", ms(tracer.fwd_s["hypergraph.incidence"]), "ms")
    for fam in OP_FAMILIES:
        put(f"autodiff.{fam}.calls", tracer.calls[fam] / steps, "count")
        put(f"autodiff.{fam}.fwd_ms", ms(tracer.fwd_s[fam]), "ms")
        put(f"autodiff.{fam}.bwd_ms", ms(tracer.bwd_s[fam]), "ms")
    for fam in ("gather_rows", "segment_sum"):
        secs = tracer.fwd_s[fam]
        put(f"autodiff.{fam}.gbps", tracer.fwd_bytes[fam] / secs / 1e9 if secs else 0.0,
            "GB/s-computed")
    put("autodiff.backward.ms", ms(tracer.backward_s), "ms")
    put("autodiff.backward.overhead_ms", ms(tracer.backward_overhead_s), "ms")
    put("autodiff.tensors", tracer.tensors / steps, "count")
    put("autodiff.vjp_calls", tracer.vjp_calls / steps, "count")
    scopes = [f"nn.{s}" for s in ("proj", "head", "loss", "layer_norm")]
    scopes += [f"allset.layer{i}.{h}" for i in (0, 1) for h in ("v2e", "e2v")]
    scopes += [f"rules.{r}" for r in RULES]
    for s in scopes:
        put(f"{s}.fwd_ms", ms(tracer.fwd_s[s]), "ms")
        put(f"{s}.bwd_ms", ms(bwd[s]), "ms")
    put("optim.adam.ms", ms(tracer.fwd_s["optim.adam"]), "ms")
    put("trace.step_ms", traced_step_ms, "ms")
    put("trace.overhead_pct", 100.0 * (traced_step_ms / untraced_step_ms - 1.0), "%")
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        allocator: dict) -> tuple:
    """Returns (result, info): the contract's result object and the
    run's descriptive record."""
    from hgxbench import csbm
    from hgxbench.workloads import WORKLOADS

    w = WORKLOADS[workload_name]
    data = csbm.generate(w.graph, seed)
    info = {"workload": w.name, "env": environment(seed, allocator), "inputs": csbm.describe(data)}

    ref = ReferenceKernel()
    trainer, build_s, build_ref_s = setup(w, data, seed, ref)
    checks = {}
    rows = grad_check(trainer, seed)
    info["grad_check"] = rows
    checks["grad_check"] = all(r["ok"] for r in rows)

    base = train(trainer, w.steps, seconds, ref)
    losses = base["losses"]
    attempted, failed = len(losses), base["failed"]
    checks["losses_finite"] = failed == 0
    checks["loss_decreased"] = bool(losses[-1] < losses[0])
    checks["val_acc_floor"] = bool(base["val_acc"] >= w.acc_floor)
    info["losses_first_last"] = [losses[0], losses[-1]]
    info["val_acc"] = base["val_acc"]
    info["val_acc_floor"] = w.acc_floor
    info["samples"] = {"step_ms": len(base["step_s"]), "eval_ms": len(base["eval_s"]),
                       "setup_s": SETUP_REPEATS}
    info["error_rate"] = failed / attempted
    info["wall_clock"] = {
        "setup_s.p50": statistics.median(build_s),
        "step_ms.p50": statistics.median(base["step_s"]) * 1e3,
        "eval_ms.p50": statistics.median(base["eval_s"]) * 1e3,
        "reference_ms.p50": statistics.median(base["ref_s"]) * 1e3,
    }
    step_ms = [t * 1e3 for t in at_reference_speed(base["step_s"], base["ref_s"])]

    if not trace:
        eval_ms = [t * 1e3 for t in at_reference_speed(base["eval_s"], base["ref_s"])]
        metrics = {
            "setup_s": (statistics.median(at_reference_speed(build_s, build_ref_s)), "s"),
            "step_ms.p50": (percentile(step_ms, 50), "ms"),
            "step_ms.p90": (percentile(step_ms, 90), "ms"),
            "eval_ms.p50": (percentile(eval_ms, 50), "ms"),
            "eval_ms.p90": (percentile(eval_ms, 90), "ms"),
            "peak_step_mb": (peak_step_mb(trainer), "MB"),
            "val_acc": (base["val_acc"], "fraction"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    else:
        from hgxbench.trace import Tracer, installed

        tracer = Tracer()
        traced_steps = min(TRACE_STEPS, len(losses))
        with installed(tracer):
            traced_trainer, _, _ = setup(w, data, seed, ref)
            traced = train(traced_trainer, traced_steps, 0.0, ref, tracer=tracer)
        attempted += len(traced["losses"])
        failed += traced["failed"]
        checks["traced_losses_identical"] = traced["losses"] == losses[:traced_steps]
        traced_ms = [t * 1e3 for t in at_reference_speed(traced["step_s"], traced["ref_s"])]
        metrics = per_layer(tracer, percentile(traced_ms, 50), percentile(step_ms, 50))
        info["spans"] = len(tracer.spans)
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"spans-{w.name}-{seed}.json", "w") as f:
            json.dump(tracer.spans_json(), f)

    info["checks"] = checks
    result = {"correct": all(checks.values()), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    allocator = pin_allocator()
    _import_hgx()
    from hgxbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), allocator)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, ok in info["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
