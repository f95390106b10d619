"""Real-pipeline CHRIS benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay_hq --seed 1 --seconds 10 --trace 0

Workloads: ``replay_hq``, ``durable_lowpower``, ``serve_stream`` (see
``workloads.py``).  The run builds the pipeline from the checkout's
``src/`` several times and reports the median set-up time, computes the
reference outputs, measures for ``--seconds`` seconds and checks every
output.  Set-up and replay times are scaled to a reference host speed
measured next to them (see ``hostspeed.py``); the raw ones are kept in
the record.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics listed in ``BENCHMARK.json``; with ``--trace 1`` the
run also measures traced and carries the per-layer metrics instead.  The
full record (environment, parameters, every sample) is printed before
that line and written under ``.perfbench_out/``, with the spans of a
traced run next to it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
#: Set-ups per run, each followed by a measuring segment; ``setup_s`` is
#: their median.
SETUP_REPEATS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay_hq", "durable_lowpower", "serve_stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics this run must report, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = metric_units(bool(args.trace))

    started = time.perf_counter()
    import envinfo
    from hostspeed import REFERENCE_KERNEL_S, HostSpeed
    from spans import Tracer
    from workloads import DurableLowPower, ReplayHQ, ServeStream

    import_s = time.perf_counter() - started
    workload_class = {w.name: w for w in (ReplayHQ, DurableLowPower, ServeStream)}[args.workload]

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    host = HostSpeed()
    workload = workload_class(workdir)
    tracer = Tracer() if args.trace else None
    setup_raw_s: list[float] = []
    setup_s: list[float] = []
    reference = None
    try:
        # Set up several times and measure a segment after each set-up,
        # so that both spread over the whole run.
        for segment in range(SETUP_REPEATS):
            before = host.sample()
            t0 = time.perf_counter()
            state = workload.setup(args.seed)
            setup_raw_s.append(time.perf_counter() - t0)
            setup_s.append(host.scaled(setup_raw_s[-1], before, host.sample()))
            try:
                if segment == 0:
                    reference = workload.reference(state)
                workload.measure(state, reference, args.seconds / SETUP_REPEATS, tracer)
                if segment == SETUP_REPEATS - 1:
                    if tracer is not None and isinstance(workload, DurableLowPower):
                        workload.pooled_comparison(state, reference)
                    measured = workload.summary(state, tracer)
            finally:
                workload.close(state)
                # Let the next set-up start without this one alive.
                del state
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for child in multiprocessing.active_children():
            child.join(timeout=30)

    e2e = {
        "setup_s": statistics.median(setup_s),
        **measured.e2e,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values = measured.layers if args.trace else e2e
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics listed in BENCHMARK.json but not measured: {missing}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": workload.parameters(),
        "environment": envinfo.environment(ROOT),
        "import_s": import_s,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "host": {"reference_kernel_s": REFERENCE_KERNEL_S, "kernel_samples_s": host.samples},
        "end_to_end": e2e,
        "per_layer": measured.layers,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "failed_frac": measured.failed / max(measured.attempted, 1),
        "details": measured.record,
        "pooled": getattr(workload, "pooled", None),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(tracer.to_json()))

    for name, value in e2e.items():
        print(f"{args.workload} {name} = {value:.6g}")
    for name, value in measured.layers.items():
        print(f"{args.workload} {name} = {value:.6g}")
    print(f"{args.workload} failed_frac = {record['failed_frac']:.6g} "
          f"({measured.failed} of {measured.attempted} windows)")
    print("record " + json.dumps(record))
    result = {
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
