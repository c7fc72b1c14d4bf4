"""finreg benchmark.

    python3 perfbench/run.py --workload {structure,maps,cli,all} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With --trace 0 the workload runs as a
closed loop with one client for at least S seconds of operation time and the
end-to-end metrics are reported.  With --trace 1 pass 0 of the workload runs
with spans recorded around calls into finreg, each operation right after an
untraced twin (for the tracing overhead); then a coverage pass over the other
workloads' operation kinds (for layers this workload never enters) and the
micro-kernel probes run, and the per-layer metrics are reported.  The last line
of standard output is the result object; the line before it, starting with
`meta `, records the workload's composition.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

import harness
from harness import WORK, emit, run_child, run_op

WORKLOAD_NAMES = ("structure", "maps", "cli")
COVERAGE_OP = 1_000_000          # op ids from here on belong to the coverage pass

# per-layer metric -> (span name, statistic); statistics are totals over the
# traced pass except mean_ms, which is per process
SPAN_METRICS = (
    ("fields.construct.ms", "fields.construct", "ms"),
    ("fields.construct.calls", "fields.construct", "calls"),
    ("fields.lagrange_interpolate.ms", "fields.lagrange_interpolate", "ms"),
    ("products.generated_subring.ms", "products.generated_subring", "ms"),
    ("products.generated_subring.calls", "products.generated_subring", "calls"),
    ("products.generated_subring.elements", "products.generated_subring", "count"),
    ("products.decompose_finite_reduced.ms", "products.decompose_finite_reduced", "ms"),
    ("products.decompose_finite_reduced.calls", "products.decompose_finite_reduced", "calls"),
    ("products.residue_field_signature.ms", "products.residue_field_signature", "ms"),
    ("products.structure_decompose.self_ms", "products.structure_decompose", "self_ms"),
    ("products.iso_test.ms", "products.iso_test", "ms"),
    ("products.iso_test.calls", "products.iso_test", "calls"),
    ("products.check_residue_cover.ms", "products.check_residue_cover", "ms"),
    ("products.check_residue_cover.calls", "products.check_residue_cover", "calls"),
    ("products.extract_combination.ms", "products.extract_combination", "ms"),
    ("products.extract_combination.calls", "products.extract_combination", "calls"),
    ("products.cached_elements.ms", "products.cached_elements", "ms"),
    ("polymaps.is_contractive.ms", "polymaps.is_contractive", "ms"),
    ("polymaps.is_contractive.calls", "polymaps.is_contractive", "calls"),
    ("polymaps.contractive_to_polynomial.self_ms", "polymaps.contractive_to_polynomial", "self_ms"),
    ("polymaps.induced_table.ms", "polymaps.induced_table", "ms"),
    ("polymaps.iteration_orbit.self_ms", "polymaps.iteration_orbit", "self_ms"),
    ("polymaps.iteration_orbit.calls", "polymaps.iteration_orbit", "calls"),
    ("polymaps.commutes_with_conv.ms", "polymaps.commutes_with_conv", "ms"),
    ("polymaps.commutes_with_conv.calls", "polymaps.commutes_with_conv", "calls"),
    ("gallery.tower_build.ms", "gallery.tower_build", "ms"),
    ("gallery.tower_verify.ms", "gallery.tower_verify", "ms"),
    ("gallery.vraciu_build.ms", "gallery.vraciu_build", "ms"),
    ("textio.parse_ring.ms", "textio.parse_ring", "ms"),
    ("textio.parse_element.ms", "textio.parse_element", "ms"),
    ("textio.workspace_load.ms", "textio.workspace_load", "ms"),
    ("selftest.run_ms", "selftest.run", "ms"),
    ("cli.main_ms", "cli.main", "mean_ms"),
    ("cli.import_ms", "cli.import", "mean_ms"),
)
UNITS = {"ms": "ms", "self_ms": "ms", "mean_ms": "ms", "calls": "count", "count": "count"}


def load_workloads():
    import wl_cli
    import wl_maps
    import wl_structure

    return {"structure": wl_structure, "maps": wl_maps, "cli": wl_cli}


def setup_code(mod):
    if mod.__name__ == "wl_cli":
        return "import finreg.cli"
    specs = ", ".join(f"({p}, {n})" for p, n in mod.SETUP_FIELDS)
    return ("import finreg\nfrom finreg.fields import finite_field\n"
            f"for p, n in ({specs},):\n    finite_field(p, n)\n")


def make_workload(mod, seed, tracer=None):
    return mod.Workload(seed, tracer=tracer) if mod.__name__ == "wl_cli" else mod.Workload(seed)


def known_defects(mod):
    return getattr(mod, "KNOWN_DEFECTS", {})


def verdict(mod, failures):
    """correct is False when any failure is not a documented known defect."""
    unexplained = [f for f in failures if f[1] not in known_defects(mod)]
    return not unexplained, unexplained


def untraced(mod, args):
    setup_s = harness.time_setup(setup_code(mod))
    wl = make_workload(mod, args.seed)
    speed = harness.Speed.in_children() if mod.__name__ == "wl_cli" else harness.Speed.in_process()
    outcome = harness.closed_loop(wl.make_pass, args.seconds, speed)
    who = resource.RUSAGE_CHILDREN if mod.__name__ == "wl_cli" else resource.RUSAGE_SELF
    metrics = harness.end_to_end(outcome, setup_s, harness.peak_rss_mb(who))
    n = len(outcome.latencies_ns)
    correct, unexplained = verdict(mod, outcome.failures)
    meta = {
        "workload": args.workload, "seed": args.seed, "input_digest": wl.digest.hexdigest(),
        "passes": outcome.passes, "operations": n, "ops_per_kind": outcome.kinds,
        "latency_samples": n, "samples_beyond_p90": n - -(-n * 90 // 100),
        "error_rate": len(outcome.failures) / n,
        "failures": [list(f) for f in outcome.failures[:20]],
        "unexplained_failures": len(unexplained),
        "composition": wl.composition(), "src_lines": harness.src_line_count(),
        "setup_repeats": harness.SETUP_REPEATS,
        "measured_throughput_ops_s": n / (outcome.timed_ns / 1e9),
        "speed_scale_median": speed.median_scale(),
    }
    emit(correct, n, len(outcome.failures), metrics, meta)


def run_pass(tracer, ops, first_op, replay=None):
    """Run ops with spans on; with `replay`, an untraced copy of the same pass,
    each replayed operation runs just before its traced twin.  Returns (traced
    ns, replay ns, failures)."""
    traced_ns = replay_ns = 0
    failures = []
    for i, op in enumerate(ops):
        if replay is not None:
            replay_ns += run_op(replay[i])[0]
        tracer.op = first_op + i
        tracer.install()
        ns, reason = run_op(op)
        tracer.uninstall()
        traced_ns += ns
        if reason is not None:
            failures.append((op.kind, op.key, reason))
    return traced_ns, replay_ns, failures


def traced(mod, args, workloads):
    from probes import kernels
    from tracing import Tracer, summarize

    tracer = Tracer()
    if mod.__name__ != "wl_cli":          # fields built in a fresh process, as in setup_s
        spans_path = WORK / "setup-spans.json"
        specs = [f"{p}:{n}" for p, n in mod.SETUP_FIELDS]
        rc, _, _ = run_child([str(harness.HERE / "tracechild.py"), str(spans_path), "setup", *specs])
        if rc != 0:
            raise RuntimeError("traced set-up process failed")
        tracer.op = -1
        tracer.merge(json.loads(spans_path.read_text(encoding="utf-8")))

    instances = {args.workload: make_workload(mod, args.seed, tracer)}
    ops = instances[args.workload].make_pass(0)
    replay = make_workload(mod, args.seed).make_pass(0)
    traced_ns, replay_ns, failures = run_pass(tracer, ops, 0, replay)

    coverage = []
    for name, other in workloads.items():
        if name == args.workload:
            continue
        instances[name] = make_workload(other, args.seed, tracer)
        kinds = set()
        for op in instances[name].make_pass(0):
            if op.kind not in kinds:
                kinds.add(op.kind)
                coverage.append(op)
    run_pass(tracer, coverage, COVERAGE_OP)

    in_workload = summarize(tracer.spans, lambda s: s[4] < COVERAGE_OP)
    in_coverage = summarize(tracer.spans, lambda s: s[4] >= COVERAGE_OP)
    metrics, sources = {}, {}
    for metric, span, stat in SPAN_METRICS:
        source = "workload" if span in in_workload else "coverage"
        acc = (in_workload if span in in_workload else in_coverage).get(
            span, {"calls": 0, "ns": 0, "self_ns": 0, "count": 0})
        value = {"ms": acc["ns"] / 1e6, "self_ms": acc["self_ns"] / 1e6, "calls": acc["calls"],
                 "count": acc["count"], "mean_ms": acc["ns"] / 1e6 / max(1, acc["calls"])}[stat]
        metrics[metric] = (value, UNITS[stat])
        sources[metric] = source
    cli_wl = instances["cli"]
    metrics["cli.spawn_ms"] = (sum(cli_wl.spawn_ns) / len(cli_wl.spawn_ns) / 1e6, "ms")
    sources["cli.spawn_ms"] = "workload" if args.workload == "cli" else "coverage"
    structure_wl = instances["structure"]
    metrics["products.iso_test.repeat_share"] = (structure_wl.composition()["iso_repeat_share"], "ratio")
    sources["products.iso_test.repeat_share"] = "workload" if args.workload == "structure" else "coverage"
    metrics["trace.overhead_ratio"] = (traced_ns / replay_ns, "ratio")
    probe_metrics, probe_sizes = kernels(args.seed)
    metrics.update(probe_metrics)

    spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
    tracer.dump(spans_file)
    correct, unexplained = verdict(mod, failures)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "input_digest": instances[args.workload].digest.hexdigest(),
        "traced_operations": len(ops), "coverage_operations": len(coverage),
        "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(harness.ROOT)),
        "metric_source": sources, "probe_sizes": probe_sizes,
        "failures": [list(f) for f in failures[:20]], "unexplained_failures": len(unexplained),
        "src_lines": harness.src_line_count(),
    }
    emit(correct, len(ops), len(failures), metrics, meta)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":             # each workload in its own process, one after another
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for name in WORKLOAD_NAMES]
        sys.exit(max(codes))
    harness.require_sources()
    workloads = load_workloads()
    mod = workloads[args.workload]
    start = time.perf_counter()
    if args.trace:
        traced(mod, args, workloads)
    else:
        untraced(mod, args)
    print(f"perfbench: {args.workload} done in {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
