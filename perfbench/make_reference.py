"""Regenerate ``reference.json``: the exact amplitudes the benchmark checks.

Usage, from the repository root::

    python3 perfbench/make_reference.py

The table holds every exact amplitude of one ``report`` bundle (inputs fixed)
and those of the first iterations of ``sweep`` and ``cycle`` at the default
seed.  A run compares each amplitude it computes against the entry with the
same system and ``eps``, when there is one, to within 1e-8.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, HERE, SRC, THREAD_VARS, WORK

SWEEP_ITERATIONS = 3
CYCLE_ITERATIONS = 24


def main() -> int:
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import limitcycles.integrator as integrator
    from workloads import (
        CYCLE_SAMPLES, SYSTEMS, WORKLOADS, _quiet_main, make_spec, reference_key,
        report_amplitudes,
    )

    table = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        code, text = _quiet_main(["report", "--output-dir", tmp])
        if code != 0:
            raise SystemExit(f"report failed: {text}")
        table["report"] = report_amplitudes(Path(tmp))

    table["sweep"] = {}
    inputs = WORKLOADS["sweep"].inputs(random.Random(DEFAULT_SEED))
    for _ in range(SWEEP_ITERATIONS):
        inp = next(inputs)
        for system in SYSTEMS:
            curve = integrator.amplitude_sweep(system, inp[system])
            for eps, amplitude in zip(curve.eps, curve.amplitude):
                table["sweep"][reference_key(system, float(eps))] = float(amplitude)

    table["cycle"] = {}
    inputs = WORKLOADS["cycle"].inputs(random.Random(DEFAULT_SEED))
    config = integrator.IntegratorConfig(n_samples=CYCLE_SAMPLES)
    for _ in range(CYCLE_ITERATIONS):
        inp = next(inputs)
        cycle = integrator.limit_cycle(make_spec(inp["system"], inp["eps"]), config)
        table["cycle"][reference_key(inp["system"], inp["eps"])] = cycle.amplitude

    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'reference.json'}: " + ", ".join(f"{k} {len(v)}" for k, v in table.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
