"""Record values are a pure function of the model across interpreters.

String hashing is salted per process (``PYTHONHASHSEED``), so anything
that sums floats in set-iteration order can round differently in two
processes.  Within one process everything is deterministic, so the check
needs two subprocesses with different seeds; it runs the triggered BWR
cold and compares every record's probability bit for bit.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from repro.core.analyzer import AnalysisOptions, analyze
from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr

sdft = build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))
result = analyze(sdft, AnalysisOptions())
print(json.dumps({
    "total": result.failure_probability.hex(),
    "records": [
        ["+".join(sorted(r.cutset)), r.probability.hex(), r.chain_states]
        for r in result.records
    ],
}))
"""


def _records(hash_seed: int) -> dict:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join(p for p in paths if p),
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(done.stdout)


def test_bwr_records_identical_across_hash_seeds():
    first, second = _records(0), _records(7)
    assert len(first["records"]) == 3981
    assert first == second
