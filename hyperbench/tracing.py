"""Span tracing at the layer boundaries of hyperlog, from outside it.

While a traced task runs, the tracer replaces public names of each layer
*as bound in the module that calls them* (for example
``hyperlog.cert.eval_coeffs`` and ``hyperlog.cli.discover_relations``) and
methods of ``PoleLocalizedRational`` and ``Alphabet`` with wrappers that
record a span per call: (name, start, end, parent span, task id).  Spans
stay in memory and are written out once, at the end of the run; ``detach``
restores every original binding.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, task id)
        self.counts = defaultdict(float)
        self.task_id = -1
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def wrap(self, name, fn, on_result=None, on_error=None):
        """Wrapper recording a span named ``name`` around ``fn``.

        ``on_result(tracer, args, kwargs, result)`` and
        ``on_error(tracer, exc)`` update counts at the same boundary.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.task_id)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attribute, name, on_result=None, on_error=None):
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, on_result, on_error))

    def attach(self, task_id):
        """Wrap every traced name for the duration of one task."""
        self.task_id = task_id
        install(self)

    def detach(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "task"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def self_times(spans):
    """name -> (calls, total self seconds) from (name, start, end, parent,
    task) span tuples, parents being indices into ``spans``.  Self time is
    a span's duration minus the union of the intervals its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _parent, _task) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, secs) for name, (calls, secs) in out.items()}


# ----- what to wrap ----------------------------------------------------------


def _count_table(tracer, args, kwargs, table):
    tracer.counts["chen.tables"] += 1
    tracer.counts["chen.table_words"] += len(table.values)
    tol = args[3] if len(args) > 3 else kwargs["tol"]
    worst = max(table.error_estimates.values(), default=0.0) / tol
    tracer.counts["chen.err_est_over_tol"] = max(tracer.counts["chen.err_est_over_tol"], worst)


def _count_path(tracer, args, kwargs, path):
    tracer.counts["chen.paths"] += 1
    tracer.counts["chen.path_segments"] += len(path.segments())


def _count_chen_failure(tracer, exc):
    from hyperlog.chen import PathGeometryError, StepSizeUnderflowError

    if isinstance(exc, (PathGeometryError, StepSizeUnderflowError)):
        tracer.counts["chen.failures"] += 1


def _count_verify(tracer, args, kwargs, outcome):
    tracer.counts["cert.verify_attempts"] += 1
    if outcome.status.value == "EXACT":
        tracer.counts["cert.verify_exact"] += 1


def _count_rct(tracer, args, kwargs, table):
    tracer.counts["cert.table_entries"] += len(table.entries)
    tracer.counts["cert.table_blocked"] += len(table.blocked)


def _count_shuffle_product(tracer, args, kwargs, product):
    tracer.counts["ncalg.shuffle_product.terms_out"] += len(product.terms)


def _count_obstruction(tracer, exc):
    from hyperlog.ratfun import ResidueObstruction

    if isinstance(exc, ResidueObstruction):
        tracer.counts["ratfun.residue_obstructions"] += 1


def install(tracer):
    """Wrap every traced name, as bound where it is called."""
    from hyperlog import cert, chen, cli, ncalg
    from hyperlog.ratfun import PoleLocalizedRational
    from hyperlog.words import Alphabet

    fail = _count_chen_failure
    # chen, as bound in cli and cert
    for mod in (cli, cert):
        tracer.patch(mod, "eval_coeffs", "chen.eval_coeffs", _count_table, fail)
        tracer.patch(mod, "build_path", "chen.build_path", _count_path, fail)
    tracer.patch(cli, "grouplike_report", "chen.grouplike_report")
    # cert, as bound in cli, inside cert, and as the benchmark calls it
    tracer.patch(cli, "discover_relations", "cert.discover_relations")
    tracer.patch(cert, "certify", "cert.certify")
    tracer.patch(cert, "sample_matrix", "cert.sample_matrix")
    tracer.patch(cert, "numeric_relation_defect", "cert.numeric_relation_defect")
    tracer.patch(cert, "verify_relation", "cert.verify_relation", _count_verify)
    tracer.patch(cert, "rational_coefficient_table", "cert.rational_coefficient_table", _count_rct)
    tracer.patch(cert, "witness_to_degree1_relation", "cert.witness_to_degree1_relation")
    # ncalg, as bound in cert and ncalg
    tracer.patch(cert, "reduce_poly", "ncalg.reduce")
    tracer.patch(cert, "pair", "ncalg.pair")
    tracer.patch(ncalg, "shuffle_product", "ncalg.shuffle_product", _count_shuffle_product)
    # ratfun methods
    tracer.patch(PoleLocalizedRational, "__mul__", "ratfun.mul")
    tracer.patch(PoleLocalizedRational, "__add__", "ratfun.add")
    tracer.patch(PoleLocalizedRational, "__radd__", "ratfun.add")
    tracer.patch(PoleLocalizedRational, "derivative", "ratfun.derivative")
    tracer.patch(
        PoleLocalizedRational, "rational_primitive", "ratfun.rational_primitive",
        on_error=_count_obstruction,
    )
    tracer.patch(PoleLocalizedRational, "evaluate_exact", "ratfun.evaluate_exact")
    # words, as bound in chen and ncalg
    tracer.patch(chen, "shuffle", "words.shuffle")
    tracer.patch(ncalg, "shuffle", "words.shuffle")
    tracer.patch(Alphabet, "words_up_to", "words.words_up_to")
    # cli
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "load_config", "cli.load_config")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced_wall, untraced_wall):
    """The per-layer table: name -> (value, unit)."""
    st = self_times(tracer.spans)
    c = tracer.counts

    def calls(name):
        return (float(st.get(name, (0, 0.0))[0]), "count")

    def self_s(name):
        return (st.get(name, (0, 0.0))[1], "s")

    return {
        "chen.eval_coeffs.calls": calls("chen.eval_coeffs"),
        "chen.eval_coeffs.self_s": self_s("chen.eval_coeffs"),
        "chen.build_path.self_s": self_s("chen.build_path"),
        "chen.grouplike_report.self_s": self_s("chen.grouplike_report"),
        "chen.words_per_table": (_ratio(c["chen.table_words"], c["chen.tables"]), "words"),
        "chen.segments_per_path": (_ratio(c["chen.path_segments"], c["chen.paths"]), "segments"),
        "chen.err_est_over_tol": (c["chen.err_est_over_tol"], "ratio"),
        "chen.failures": (c["chen.failures"], "count"),
        "cert.discover_relations.self_s": self_s("cert.discover_relations"),
        "cert.sample_matrix.calls": calls("cert.sample_matrix"),
        "cert.sample_matrix.self_s": self_s("cert.sample_matrix"),
        "cert.numeric_relation_defect.self_s": self_s("cert.numeric_relation_defect"),
        "cert.verify_relation.self_s": self_s("cert.verify_relation"),
        "cert.verify_relation.exact_frac": (
            _ratio(c["cert.verify_exact"], c["cert.verify_attempts"]), "ratio"),
        "cert.rational_coefficient_table.self_s": self_s("cert.rational_coefficient_table"),
        "cert.table_blocked_frac": (
            _ratio(c["cert.table_blocked"], c["cert.table_entries"] + c["cert.table_blocked"]),
            "ratio"),
        "cert.certify.self_s": self_s("cert.certify"),
        "cert.witness_to_degree1_relation.self_s": self_s("cert.witness_to_degree1_relation"),
        "ncalg.reduce.calls": calls("ncalg.reduce"),
        "ncalg.reduce.self_s": self_s("ncalg.reduce"),
        "ncalg.pair.self_s": self_s("ncalg.pair"),
        "ncalg.shuffle_product.self_s": self_s("ncalg.shuffle_product"),
        "ncalg.shuffle_product.terms_out": (c["ncalg.shuffle_product.terms_out"], "count"),
        "ratfun.mul.calls": calls("ratfun.mul"),
        "ratfun.mul.self_s": self_s("ratfun.mul"),
        "ratfun.add.self_s": self_s("ratfun.add"),
        "ratfun.derivative.self_s": self_s("ratfun.derivative"),
        "ratfun.rational_primitive.calls": calls("ratfun.rational_primitive"),
        "ratfun.rational_primitive.self_s": self_s("ratfun.rational_primitive"),
        "ratfun.residue_obstructions": (c["ratfun.residue_obstructions"], "count"),
        "ratfun.evaluate_exact.self_s": self_s("ratfun.evaluate_exact"),
        "words.shuffle.calls": calls("words.shuffle"),
        "words.shuffle.self_s": self_s("words.shuffle"),
        "words.words_up_to.self_s": self_s("words.words_up_to"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.load_config.self_s": self_s("cli.load_config"),
        "cli.output_bytes": (c["cli.output_bytes"], "B"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall, "ratio"),
    }
