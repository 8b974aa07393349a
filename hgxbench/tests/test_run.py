import dataclasses
import json
from pathlib import Path

import pytest

from hgxbench import run, workloads
from hgxbench.csbm import CsbmSpec, EdgeSizeLaw

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
SMALL = CsbmSpec(n=120, m=60, classes=7, features=16, homophily=0.9,
                 feature_snr=4.0, sizes=EdgeSizeLaw("poisson", 1.6))


@pytest.fixture
def small_workloads(monkeypatch, tmp_path):
    for name, w in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(w, graph=SMALL, steps=3, acc_floor=0.0))
    monkeypatch.setattr(run, "SETUP_REPEATS", 3)
    monkeypatch.setattr(run, "ROOT", tmp_path)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_printed_metrics_are_declared(small_workloads, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    printed = {ln.split(" = ")[0] for ln in lines if " = " in ln}
    assert printed == set(result["metrics"]) == set(declared)
    for metric_name, m in result["metrics"].items():
        assert m["unit"] == declared[metric_name]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert code == (0 if result["correct"] else 1)
    info = json.loads(lines[-2])["info"]
    assert info["checks"]["grad_check"] and info["checks"]["losses_finite"]
    if trace:
        assert info["checks"]["traced_losses_identical"]
