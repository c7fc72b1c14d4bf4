"""The benchmark's own tests: deterministic inputs, passing checks, tracing.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import harness

harness.require_sources()

import tracing  # noqa: E402
import wl_cli  # noqa: E402
import wl_maps  # noqa: E402
import wl_structure  # noqa: E402
from finreg import products  # noqa: E402
from finreg.fields import finite_field  # noqa: E402

SMOKE_CLI = {"ring-new", "ring-iso", "map-topoly", "map-contractive", "demo-gf4-kernel",
             "malformed"}


def _digest(mod, seed):
    wl = mod.Workload(seed)
    wl.make_pass(0)
    return wl.digest.hexdigest()


def _failures(ops):
    out = []
    for op in ops:
        _, reason = harness.run_op(op)
        if reason is not None:
            out.append((op.key, reason))
    return out


def test_same_seed_same_inputs():
    for mod in (wl_structure, wl_maps, wl_cli):
        assert _digest(mod, 7) == _digest(mod, 7), mod.__name__
        assert _digest(mod, 7) != _digest(mod, 8), mod.__name__


def test_structure_smoke_passes_every_check():
    wl = wl_structure.Workload(3)
    ops = wl.make_pass(0)
    kinds = {op.kind for op in ops}
    assert kinds == {"random", "full", "iso"}
    picked = [op for op in ops if op.kind != "random"][:30]
    picked += [op for op in ops if op.kind == "random"][:20]
    assert _failures(picked) == []


def test_maps_smoke_passes_every_check():
    ops = wl_maps.Workload(3).make_pass(0)
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    assert set(first) == {"topoly", "perturbed", "increment", "frobenius", "conv", "conv-perturbed"}
    assert _failures(first.values()) == []


def test_cli_smoke_reports_only_the_duplicate_key_defect():
    ops = [op for op in wl_cli.Workload(3).make_pass(0) if op.kind in SMOKE_CLI]
    failures = _failures(ops)
    assert [key for key, _ in failures] == ["malformed/5"]
    assert failures[0][1] == "exit 1, expected 2"


def test_tracer_spans_nest_and_uninstall():
    tracer = tracing.Tracer()
    ring = products.ProductRing([(finite_field(2, 2), 2)])
    pres = products.full_presentation(ring)
    original = products.structure_decompose
    tracer.install()
    try:
        products.structure_decompose(pres)
    finally:
        tracer.uninstall()
    assert products.structure_decompose is original
    summary = tracing.summarize(tracer.spans)
    top = summary["products.structure_decompose"]
    assert top["calls"] == 1
    assert summary["products.generated_subring"]["count"] == 4      # GF(4) scalars
    children = sum(summary[n]["ns"] for n in ("products.generated_subring",
                                              "products.decompose_finite_reduced",
                                              "products.residue_field_signature"))
    assert top["self_ns"] == top["ns"] - children >= 0


def test_run_prints_result_last():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "maps", "--seed", "1",
                           "--seconds", "0.1", "--trace", "0"], cwd=harness.ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "throughput_ops_s", "latency_p50_ms",
                                      "latency_p90_ms", "success_rate", "peak_rss_mb"}


def test_refuses_to_run_without_sources():
    bare = harness.WORK / "bare-checkout"          # the benchmark alone, without src/
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "structure",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
