"""The benchmark's tracer wraps hyperlog names as bound where they are
called; every name it patches must exist, and detaching must put back the
original objects.  A rename in ``src/`` then fails here rather than only in
a traced benchmark run."""

import importlib.util
from pathlib import Path

from hyperlog import cert, chen, cli, ncalg
from hyperlog.ratfun import PoleLocalizedRational
from hyperlog.words import Alphabet

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
