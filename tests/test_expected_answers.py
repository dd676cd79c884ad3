"""The committed benchmark answers replay in tier-1.

Every operation any seed of a workload can draw (`workloads.pool`) runs
through the benchmark worker's own `_prepare` and `_run`, and its output
digest must equal the one committed in `perfbench/expected/W.json`.  A
digest that drifts in any layer then fails here before the benchmark is
run.  Both files are read, never written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


worker = _load_worker()


@pytest.mark.parametrize("workload", worker.workloads.WORKLOADS)
def test_pool_reproduces_the_committed_digests(workload):
    expected = json.loads((PERFBENCH / "expected" / f"{workload}.json").read_text())
    linkcoh = worker._import_linkcoh()
    ops = worker.workloads.pool(workload)
    assert sorted(op.key for op in ops) == sorted(expected)
    drifted, failed = [], []
    for op in ops:
        text, failure = worker._run(linkcoh, op, worker._prepare(linkcoh, op))
        if failure is not None:
            failed.append((op.key, failure))
        if worker.digest(text) != expected[op.key]:
            drifted.append(op.key)
    assert not failed, failed[:5]
    assert not drifted, f"{len(drifted)} of {len(ops)} digests drifted: {drifted[:5]}"
