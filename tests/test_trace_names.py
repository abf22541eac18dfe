"""The benchmark's tracer wraps hyperlog names as bound where they are
called; every name it patches must exist, and detaching must put back the
original objects.  A rename in ``src/`` then fails here rather than only in
a traced benchmark run."""

import importlib.util
from pathlib import Path

from hyperlog import cert, chen, cli, ncalg
from hyperlog.ratfun import PoleLocalizedRational
from hyperlog.words import Alphabet

from test_exact_workload import load_workloads

TRACING = Path(__file__).resolve().parents[1] / "hyperbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("hyperbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_detach_restores_every_binding():
    tracing = load_tracing()
    owners = (cert, chen, cli, ncalg, PoleLocalizedRational, Alphabet)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, attribute, original in patched:
            assert getattr(owner, attribute) is not original, attribute
    finally:
        tracer.detach()
    for owner, attribute, original in patched:
        assert getattr(owner, attribute) is original, attribute
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert after.keys() == names.keys(), owner
        assert all(after[k] is v for k, v in names.items()), owner


def test_exact_layers_record_calls(monkeypatch):
    """A traced replay of seeded ``exact`` tasks must record calls under each
    layer name the workload is meant to move; a refactor that inlines or
    bypasses a traced name would otherwise turn its metric into a silent 0."""
    tracing = load_tracing()
    workloads = load_workloads(monkeypatch)
    exact = workloads.Exact(str(TRACING.parents[1]), None)
    cycles = exact.cycles(5)
    tracer = tracing.Tracer()
    for k in range(20):
        (task,) = next(cycles)
        built = exact.prepare(task)
        tracer.attach(k)
        try:
            exact.run(built)
        finally:
            tracer.detach()
    calls = {name: n for name, (n, _) in tracing.self_times(tracer.spans).items()}
    for name in (
        "ratfun.mul",
        "ratfun.evaluate_exact",
        "ratfun.rational_primitive",
        "ncalg.shuffle_product",
        "words.shuffle",
    ):
        assert calls.get(name, 0) > 0, name
    for name in ("ncalg.shuffle_product.terms_out", "ratfun.residue_obstructions"):
        assert tracer.counts[name] > 0, name


def traced_calls(*argv):
    """Calls per traced name in one traced ``hyperlog`` run of ``argv``."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.attach(0)
    try:
        assert cli.main(list(argv)) == 0
    finally:
        tracer.detach()
    return {name: n for name, (n, _) in tracing.self_times(tracer.spans).items()}


def test_relations_layers_record_calls(capsys):
    """The relation search reaches the numeric layers through the traced
    names in ``cert``: its defects come from one fresh sample matrix."""
    configs = TRACING.parents[1] / "configs"
    calls = traced_calls("relations", "--config", str(configs / "counterexample.yaml"), "--N=2")
    assert capsys.readouterr().out
    for name in ("cert.certify", "cert.sample_matrix", "chen.eval_coeffs"):
        assert calls.get(name, 0) > 0, name
    # a free family is answered by the residue criterion alone
    calls = traced_calls("relations", "--config", str(configs / "polylog.yaml"), "--N=2")
    assert capsys.readouterr().out
    assert calls.get("cert.certify", 0) > 0
    assert calls.get("chen.eval_coeffs", 0) == 0


def test_eval_deep_layers_record_calls(tmp_path):
    """The commands of an ``eval-deep`` task, ``eval`` then ``grouplike``,
    must record calls under each layer name the workload gates; a reworked
    ``load_config`` or an inlined ``chen`` step would otherwise turn its
    metric into a silent 0."""
    common = ["--config", str(TRACING.parents[1] / "configs" / "polylog.yaml"), "--z=0.5,0.25"]
    layers = ("cli.main", "cli.load_config", "chen.build_path", "chen.eval_coeffs")
    calls = traced_calls("eval", *common, "--N=6", f"--output={tmp_path / 'eval.tsv'}")
    for name in layers:
        assert calls.get(name, 0) > 0, name
    calls = traced_calls("grouplike", *common, "--N=5", f"--output={tmp_path / 'grouplike.txt'}")
    for name in (*layers, "chen.grouplike_report"):
        assert calls.get(name, 0) > 0, name
