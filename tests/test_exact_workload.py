"""The benchmark's ``exact`` workload as a tier-1 test: seeded random
multipliers go through certify, the witness relation, a depth-4 exact table
and a shuffle product, and the workload's own oracle check must pass on
every task.  A fault in the exact core then fails here rather than only in
a benchmark run."""

import importlib.util
import sys
from pathlib import Path

HYPERBENCH = Path(__file__).resolve().parents[1] / "hyperbench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(HYPERBENCH))  # workloads imports oracles
    spec = importlib.util.spec_from_file_location("hyperbench_workloads", HYPERBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_seeded_exact_tasks_pass_the_oracle(monkeypatch):
    workloads = load_workloads(monkeypatch)
    exact = workloads.Exact(str(HYPERBENCH.parent), None)
    exact.setup()
    cycles = exact.cycles(1)
    for _ in range(25):
        for task in next(cycles):
            built = exact.prepare(task)
            outcome = exact.check(task, built, exact.run(built))
            assert outcome.ok, outcome.note
            assert outcome.coeffs >= 1
