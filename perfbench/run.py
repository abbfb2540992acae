"""Benchmark of the limitcycles package: one seeded workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload {report,sweep,cycle} --seed N \\
        --seconds S --trace {0,1}

The package is imported from ``src/`` beside this directory; nothing is
installed.  With ``--trace 0`` the run measures the end-to-end figures with
no instrumentation; their timings are scaled to a reference machine speed
gauged while they run (``measure.SpeedGauge``), and the raw wall times are
printed beside them.  With ``--trace 1`` it measures a stretch of the
workload plain, replays the same inputs with every public function of the
package wrapped (see ``tracing.py``), and reports the per-layer figures
and the tracing overhead.  Every operation's output is checked outside the timed
region.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files, the full result and the spans go under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# what a fresh process does before it can serve its first request
SETUP_CODE = (
    "import limitcycles, limitcycles.cli\n"
    "from limitcycles import geometry\n"
    "for name in geometry.BUNDLED_CURVES:\n"
    "    geometry.load_bundled(name)\n"
)


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the root."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup(probe, probe_ref_s: float) -> list:
    """(wall seconds, machine speed) of fresh interpreters that import the
    package and load its data; the speed comes from probes just before and
    after each interpreter, 1 at the reference speed."""
    def gauge():
        return statistics.median(probe() for _ in range(15))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    before = gauge()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
            timeout=120, stdout=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - start
        after = gauge()
        out.append((wall, 2.0 * probe_ref_s / (before + after)))
        before = after
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("report", "sweep", "cycle"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "limitcycles" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'limitcycles'}", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    for var in THREAD_VARS:  # before numpy is imported, here and in children
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy

    import limitcycles
    from limitcycles import geometry

    if Path(limitcycles.__file__).resolve().parent != SRC / "limitcycles":
        print(f"error: imported limitcycles from {limitcycles.__file__}", file=sys.stderr)
        return 2
    for name in geometry.BUNDLED_CURVES:
        geometry.load_bundled(name)

    from measure import PROBE_REF_S, Ledger, closed_loop, known_defect, normalized, probe
    from tracing import LAYER_METRICS, Tracer, self_times
    from workloads import WORKLOADS, Run

    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    setup = [] if args.trace else measure_setup(probe, PROBE_REF_S)
    tmp = WORK / "tmp" / f"{workload.name}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    run = Run(ledger=ledger, tmp=tmp, reference=reference)
    inputs = workload.inputs(random.Random(args.seed))
    lines = []  # (name, value, unit, note)
    spans = []
    try:
        if args.trace:
            used = closed_loop(workload, inputs, run, args.seconds / 2, 1)
            plain_s = sum(run.samples["iteration"])
            run.samples.clear()
            tracer = Tracer()
            with tracer.patched():
                closed_loop(workload, iter(used), run, 0.0, len(used), tracer)
            traced_s = sum(run.samples["iteration"])
            values = tracer.layer_metrics(traced_s - plain_s, int(run.counts["artifact_bytes"]))
            metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
            lines += [(k, v["value"], v["unit"], "") for k, v in metrics.items()]
            roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
            self_sum = sum(self_times(tracer.spans))
            op = ledger.run("trace.self_time", {"spans": len(tracer.spans)}, lambda: None)
            op.expect(abs(self_sum - roots) <= 1e-6 * max(roots, 1.0), "sum",
                      f"self times {self_sum!r} s vs root spans {roots!r} s")
            print(f"trace: {len(used)} iterations, plain {plain_s:.4f} s, traced {traced_s:.4f} s; "
                  f"self times of {len(tracer.spans)} spans sum to {self_sum:.6f} s, "
                  f"root spans {roots:.6f} s")
            spans = tracer.dump()
        else:
            closed_loop(workload, inputs, run, args.seconds, workload.min_iterations)
            sm = run.samples
            values = {
                "request_s": normalized(sm["request_s"], sm["speed"], sm["requests"]),
                "amplitude_s": normalized(sm["amplitude_s"], sm["speed"], sm["amplitudes"]),
                "setup_s": statistics.median(w * v for w, v in setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"} for k, v in values.items()}
            lines += [(k, v, metrics[k]["unit"], "") for k, v in values.items()]
            lines += [
                ("request_wall_s", sum(sm["request_s"]) / sum(sm["requests"]), "s", "not normalized"),
                ("setup_wall_s", statistics.median(w for w, _ in setup), "s",
                 f"median of {len(setup)} fresh processes"),
                ("machine_speed", statistics.median(sm["speed"]), "ratio",
                 "median over iterations, 1 = reference machine"),
            ]
            lines += workload.summary(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = ledger.failed_ops
    unexpected = ledger.unexpected
    lines.append(("failed_ratio", len(failed) / ledger.attempted, "ratio",
                  f"{len(failed)} failed of {ledger.attempted} attempted, "
                  f"{len(unexpected)} not a documented defect"))
    for name, value, unit, note in lines:
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"reference table: {run.counts['reference_checks']:.0f} amplitudes compared to within 1e-8")
    for op in failed:
        verdict = known_defect(op) or "UNEXPECTED"
        print(f"failed op [{verdict}]: {op.describe()}")

    result = {
        "correct": not unexpected,
        "attempted": ledger.attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, provenance=provenance, lines=lines,
                  failures=[[known_defect(op), op.describe()] for op in failed], spans=spans)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
