"""Cold-path benchmark of the SD fault-tree analyzer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bwr-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that times each layer from outside.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the run's metadata (workload, seed, host record, sample counts).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("bwr-cold", "erlang-serial", "erlang-farm", "bwr-whatif")
#: Imports timed per run; ``setup_s`` counts their median.
IMPORT_REPS = 3
_TIME_IMPORT = (
    "import time; started = time.perf_counter(); import workloads; "
    "print(time.perf_counter() - started)"
)


def fresh_import_s() -> float:
    """Seconds to import the benchmark and the analyzer in a new interpreter."""
    path = os.pathsep.join((str(SRC), str(ROOT / "perfbench")))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _TIME_IMPORT],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(done.stdout.split()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no analyzer sources under {SRC}", file=sys.stderr)
        return 2

    # Byte-compile up front so the first run's imports time like the rest.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: the analyzer sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import workloads  # the analyzer, numpy and scipy: set-up's import term

    imports = [time.perf_counter() - started]
    imports += [fresh_import_s() for _ in range(IMPORT_REPS - 1)]
    import measure

    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        host = measure.host_record()
        outcome = workloads.run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            str(workdir),
            statistics.median(imports),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    declared = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    if set(outcome.metrics) != set(declared):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    tally = outcome.tally
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "failures": tally.reasons,
        **outcome.meta,
    }
    print(json.dumps({"perfbench": meta}))
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
