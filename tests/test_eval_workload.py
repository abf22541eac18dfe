"""The benchmark's ``eval-deep`` workload as a tier-1 test: seeded endpoints
on the polylog (N=10) and three-letter (N=6) configs go through
``hyperlog eval`` and ``grouplike``, the workload's own oracle check must
pass on every task, and every table it printed must equal, byte for byte,
the per-word formatter of ``tests/test_cli.py`` on the same table."""

from hyperlog.chen import build_path, eval_coeffs
from hyperlog.cli import load_config
from test_cli import per_word_tsv
from test_exact_workload import HYPERBENCH, load_workloads


def test_seeded_eval_tasks_print_the_per_word_table(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    eval_deep = workloads.EvalDeep(str(HYPERBENCH.parent), str(tmp_path))
    eval_deep.setup()
    cycles = eval_deep.cycles(11)
    tasks = [task for _ in range(2) for task in next(cycles)]
    assert len(tasks) == 24
    for task in tasks:
        built = eval_deep.prepare(task)
        outcome = eval_deep.check(task, built, eval_deep.run(built))
        assert outcome.ok, outcome.note
        g = task.geometry
        cfg = load_config(g.path)
        path = build_path(complex(cfg.basepoint), task.z, cfg.pole_set.approx, cfg.margin)
        want = per_word_tsv(cfg, eval_coeffs(cfg.multiplier, path, g.N, cfg.tol))
        with open(eval_deep.out, "rb") as fh:
            assert fh.read() == want.encode(), task
