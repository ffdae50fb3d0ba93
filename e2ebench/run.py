"""End-to-end benchmark of the ZCover reproduction.

    python3 e2ebench/run.py --workload campaign_serial --seed 1 --seconds 20 --trace 0

Runs one closed-loop workload (see ``README.md`` beside this file for
why each exists) for ``--seconds`` seconds of operation time, checks
every output, and prints a human-readable report followed, as the last
line of standard output, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with tracing off; their
timings are scaled to the nominal host speed by the probe of
``hostprobe.py`` (the raw wall-clock values are printed too).
``--trace 1`` runs a fixed list of operations twice — untraced, then
with the outside-in span recorder of ``spans.py`` installed — and
reports the per-layer metrics.  The program under test is imported from
``src/`` beside this directory; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("campaign_serial", "trials_sharded", "served_mix")

#: End-to-end metrics: every workload reports all of them (trace 0).
END_TO_END = (
    ("setup_s", "s"),
    ("sim_h_per_s", "h/s"),
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: What one operation is, per workload, and the workload-specific names
#: of its end-to-end metrics (campaign_s_p50, trials_s_p50, job_s_p50,
#: job_s_p90, jobs_per_s; see README.md).
OPERATION = {
    "campaign_serial": ("campaign", {"op_s_p50": "campaign_s_p50"}),
    "trials_sharded": ("run_trials call", {"op_s_p50": "trials_s_p50"}),
    "served_mix": (
        "job (submit to result bytes)",
        {"op_s_p50": "job_s_p50", "op_s_p90": "job_s_p90", "ops_per_s": "jobs_per_s"},
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_loop(stream, seconds: float, run, host, rss_after: int, rss) -> tuple:
    """Run operations until their summed time reaches *seconds*.

    The host-speed probe *host* samples between operations; *rss()* is
    read once *rss_after* operations are done (or at the end, if fewer
    ran).  Returns ``(ops, peak RSS in MB)``.
    """
    ops = []
    elapsed = 0.0
    peak = None
    while elapsed < seconds:
        host.sample()
        op = next(stream)
        run(op)
        elapsed += op.seconds
        ops.append(op)
        if len(ops) == rss_after:
            peak = rss()
    host.sample()
    return ops, rss() if peak is None else peak


# -- trace 0: end-to-end metrics --------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, workdir: Path):
    """Untraced run: returns (metrics, ops, run-level errors, report lines)."""
    import hostprobe
    import workloads as w

    errors = []
    lines = []
    host = hostprobe.HostSpeed()
    rss_after = w.RSS_AFTER_OPS[workload]
    if workload == "served_mix":
        setup, service = w.boot_services(workdir)
        try:
            ops, rss = timed_loop(
                w.served_ops(seed),
                seconds,
                lambda op: w.run_job_op(service.client, op),
                host,
                rss_after,
                lambda: w.tree_peak_rss_mb(service.proc.pid),
            )
            errors += service.failures()
        finally:
            service.stop()
        lines.append(f"client poll interval: {w.POLL_S * 1000:.1f} ms")
    else:
        setup = w.import_setup_seconds()
        run_op, check = w.IN_PROCESS[workload]
        ops, rss = timed_loop(
            w.STREAMS[workload](seed),
            seconds,
            lambda op: check(op, run_op(op)),
            host,
            rss_after,
            w.peak_rss_mb,
        )
    oracle, ops_per_process = w.ORACLES[workload]
    w.compare_to_oracle(ops, oracle, pooled=True, ops_per_process=ops_per_process)

    times = [op.seconds for op in ops]
    elapsed = sum(times)
    raw = {
        "setup_s": statistics.median(setup),
        "sim_h_per_s": sum(op.sim_hours for op in ops) / elapsed,
        "op_s_p50": statistics.median(times),
        "op_s_p90": w.quantile(times, 0.9),
        "ops_per_s": len(ops) / elapsed,
        "peak_rss_mb": rss,
    }
    # Durations scale by the host factor, rates by its inverse.  Set-up
    # scales by the factor of the whole run too: the few probes that fit
    # between set-ups read the host far less steadily.
    factor = host.factor()
    metrics = {
        "setup_s": raw["setup_s"] * factor,
        "sim_h_per_s": raw["sim_h_per_s"] / factor,
        "op_s_p50": raw["op_s_p50"] * factor,
        "op_s_p90": raw["op_s_p90"] * factor,
        "ops_per_s": raw["ops_per_s"] / factor,
        "peak_rss_mb": rss,
    }
    what, aliases = OPERATION[workload]
    lines.append(f"operation: one {what}; {len(ops)} timed, {elapsed:.3f} s of operation time")
    lines.append(f"setup_s: median of {len(setup)} set-ups {[round(s, 4) for s in setup]}")
    lines.append(f"op_s_p50/op_s_p90: {len(times)} samples each")
    lines.append(
        f"host-speed factor {factor:.4f} from {len(host.samples)} probes; "
        f"nominal probe {hostprobe.NOMINAL_S * 1000:.1f} ms"
    )
    lines.append("raw wall-clock metrics (unscaled): " + json.dumps(raw))
    for name, alias in aliases.items():
        lines.append(f"{alias} = {name} = {metrics[name]:.6g}")
    return metrics, ops, errors, lines


# -- trace 1: per-layer metrics ---------------------------------------------------------


def traced_op_count(workload: str, seconds: float) -> int:
    """Fixed per (workload, seconds), so counts compare across commits."""
    if workload == "campaign_serial":
        return max(2, int(seconds // 5))
    if workload == "trials_sharded":
        return max(3, int(seconds // 3))
    return 6 * max(2, int(seconds // 5))


def trace(workload: str, seed: int, seconds: float, workdir: Path):
    """Traced run: returns (per-layer metrics, ops, run-level errors, lines)."""
    import spans
    import workloads as w

    stream = w.STREAMS[workload](seed)
    plan = [next(stream) for _ in range(traced_op_count(workload, seconds))]
    untraced = [replace(op) for op in plan]
    traced = [replace(op) for op in plan]
    recorder = spans.SpanRecorder()
    errors = []
    service_data = None
    services = {}
    # The spans outlive the run (the latest traced run of each workload).
    spans_dir = workdir.parent / "spans"
    spans_dir.mkdir(exist_ok=True)

    def run_op(op, service_tag):
        """Run one op; returns its live result (None for a served job)."""
        if workload == "served_mix":
            w.run_job_op(services[service_tag].client, op)
            return None
        return w.IN_PROCESS[workload][0](op)

    def check(op, result):
        if workload in w.IN_PROCESS:
            w.IN_PROCESS[workload][1](op, result)

    def untraced_step(op):
        spans.set_installed(recorder, False)
        try:
            check(op, run_op(op, "untraced"))
        finally:
            spans.set_installed(recorder, True)

    def traced_step(op):
        with recorder.root(f"bench.{workload}"):
            result = run_op(op, "traced")
        recorder.pause()
        check(op, result)
        recorder.resume()

    if workload != "served_mix":
        warm = next(stream)  # warm-up, so both sides start with warm caches
        check(warm, run_op(warm, ""))
        if warm.error:
            errors.append(f"warm-up: {warm.error}")
    spans.install(recorder)
    try:
        if workload == "served_mix":
            services["untraced"] = w.Service(workdir, "untraced")
            prefix = str(spans_dir / f"{workload}-service")
            services["traced"] = w.Service(workdir, "traced", spans_prefix=prefix)
        recorder.begin("pass")
        # Untraced and traced runs of each op alternate (and alternate which
        # goes first), so both sides see the same machine load and cache state.
        for index, (bare, op) in enumerate(zip(untraced, traced)):
            if index % 2 == 0:
                untraced_step(bare)
                traced_step(op)
            else:
                traced_step(op)
                untraced_step(bare)
        recorder.pause()
        for service in services.values():
            errors += service.failures()
    finally:
        recorder.finish()
        for service in services.values():
            service.stop()
    if workload == "served_mix":
        service_data = spans.read_spans(prefix)
    oracle, ops_per_process = w.ORACLES[workload]
    if workload in w.REMOTE_LAYERS:
        recorder.begin("oracle")
        w.compare_to_oracle(untraced + traced, oracle, pooled=False)
        recorder.finish()
    else:
        w.compare_to_oracle(
            untraced + traced, oracle, pooled=True, ops_per_process=ops_per_process
        )

    pass_data = spans.scope_data(recorder, "pass")
    bench = spans.SpanTable()
    bench.add(pass_data)
    passed = bench
    if service_data is not None:
        passed = spans.SpanTable()
        passed.add(pass_data)
        passed.add(service_data)
    if workload not in w.REMOTE_LAYERS:
        worker = passed
    else:
        worker = spans.SpanTable()
        worker.add(spans.scope_data(recorder, "oracle"))
    recorder.write("pass", str(spans_dir / f"{workload}-bench"))
    if workload in w.REMOTE_LAYERS:
        recorder.write("oracle", str(spans_dir / f"{workload}-oracle"))

    untraced_wall = sum(op.seconds for op in untraced)
    metrics = spans.layer_metrics(bench, passed, worker, len(traced), untraced_wall)
    service_spans = len(service_data["start"]) if service_data is not None else 0
    metrics["trace.spans"] = float(len(recorder.start) + service_spans)
    traced_wall = metrics["trace.wall_s"]
    split = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    for duration, own in bench.roots:
        if abs(duration - own) > 1e-6 * max(1.0, duration):
            errors.append(f"root span self times sum to {own:.9f} s, root lasts {duration:.9f} s")
    if abs(split - traced_wall) > 1e-6 * max(1.0, traced_wall):
        errors.append(f"layer self times sum to {split:.6f} s, traced wall is {traced_wall:.6f} s")

    lines = [
        f"traced {len(traced)} operations ({len(bench.roots)} root spans); "
        f"traced wall {traced_wall:.3f} s, untraced wall {untraced_wall:.3f} s",
        f"spans written to {spans_dir.relative_to(ROOT)}/{workload}-*.bin/.json",
        "self time by layer (workload root spans; sums to the traced wall):",
    ]
    for layer in spans.LAYERS:
        share = metrics[f"{layer}.self_s"] / traced_wall if traced_wall else 0.0
        lines.append(f"  {layer:<10} {metrics[f'{layer}.self_s']:9.4f} s  {share:6.1%}")
    lines.append(f"  {'sum':<10} {split:9.4f} s")
    if workload in w.REMOTE_LAYERS:
        lines.append(
            "worker-side layers (radio zwave security simulator core faults obs) come "
            "from the same operations run serially in this traced process"
        )
    return metrics, untraced + traced, errors, lines


# -- main -------------------------------------------------------------------------------


def _terminate(signum, frame):
    """SIGTERM unwinds like an exception, so services and pools are stopped."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: the program's sources are missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import procs

    procs.become_subreaper()
    workdir = ROOT / ".e2ebench_run" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            import spans

            values, ops, errors, lines = trace(args.workload, args.seed, args.seconds, workdir)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            values, ops, errors, lines = measure(args.workload, args.seed, args.seconds, workdir)
            units = dict(END_TO_END)
    finally:
        procs.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # kept when it holds spans
        except OSError:
            pass

    failed_ops = [op for op in ops if op.error]
    failed = min(len(ops), len(failed_ops) + len(errors))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    for op in failed_ops:
        print(f"FAILED: {op.error}")
    for error in errors:
        print(f"FAILED: {error}")
    print(f"error_rate: {failed}/{len(ops)} = {failed / len(ops):.4f}")
    for name, unit in units.items():
        print(f"{name:<40} {values[name]:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
