"""The benchmark's ``exact`` workload as a tier-1 test: seeded random
multipliers go through certify, the witness relation, a depth-4 exact table
and a shuffle product, and the workload's own oracle check must pass on
every task.  A fault in the exact core then fails here rather than only in
a benchmark run."""

import hashlib
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


def exact_digest(workloads, seed, n_tasks):
    """sha256 over the exact outputs of the first ``n_tasks`` seeded tasks:
    each table entry's word, text form and principal key order, the blocked
    set, the verdict and relation reprs, and the shuffle product's text."""
    from hyperlog import format_plr
    from hyperlog.ncalg import format_ncpoly

    exact = workloads.Exact(str(HYPERBENCH.parent), None)
    cycles = exact.cycles(seed)
    digest = hashlib.sha256()
    for _ in range(n_tasks):
        (task,) = next(cycles)
        built = exact.prepare(task)
        verdict, relation, table, product = exact.run(built)
        fmt = built[0].alphabet.format_word
        lines = [f"{fmt(w)}\t{format_plr(F)}\t{list(F.principal)}" for w, F in table.entries.items()]
        lines += sorted(f"blocked\t{fmt(w)}" for w in table.blocked)
        lines += [repr(verdict), repr(relation), format_ncpoly(product, built[0].alphabet)]
        digest.update("\n".join(lines).encode() + b"\n\n")
    return digest.hexdigest()


def test_seeded_exact_outputs_pinned(monkeypatch):
    """A rewrite of the exact scalars, products, primitives or shuffles must
    leave every output of 200 seeded tasks unchanged, down to the order in
    which principal terms are stored (the float evaluation sums in it)."""
    workloads = load_workloads(monkeypatch)
    assert exact_digest(workloads, 7, 200) == "8c53b3b12f08049be455216b23b266494adf6da05d9dd20eb33f6a77a43f461a"
