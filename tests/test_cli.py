import hashlib
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from hyperlog import cli
from hyperlog.cache import CACHES
from hyperlog.chen import build_path, eval_coeffs
from hyperlog.cli import FORM_TERM_BYTES, GROUPLIKE_TRIPLES, ProblemConfig, load_config, main
from hyperlog.tsv import row_width
from hyperlog.words import Alphabet

ROOT = Path(__file__).resolve().parent.parent
POLYLOG = str(ROOT / "configs" / "polylog.yaml")
COUNTER = str(ROOT / "configs" / "counterexample.yaml")
THREE_LETTERS = """\
poles: ["0", "1", "-1"]
letters:
  - {name: x0, pole: "0", weight: "1"}
  - {name: x1, pole: "1", weight: "-1"}
  - {name: x2, pole: "-1", weight: "1"}
basepoint: "1/2*i"
tol: 1.0e-12
margin: 0.05
"""


def per_word_tsv(cfg, table):
    """Reference for `hyperlog eval`: the formatter that walked table.words()."""
    lines = []
    for w in table.words():
        val = table.values[w]
        err = table.error_estimates.get(len(w), 0.0)
        fields = [cfg.alphabet.format_word(w), f"{val.real:.15g}", f"{val.imag:.15g}", f"{err:.15g}"]
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_under_2gib(argv, config):
    """Run the command ``argv`` on ``config`` in a child under a 2 GiB
    address-space limit, so that a regression that allocates fails fast
    instead of exhausting the machine's memory."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from hyperlog.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", script, *argv, "--config", config, "--z", "0.5"],
        capture_output=True, text=True, env=env, timeout=120,
    )


def assert_rejected_under_2gib(argv, config=POLYLOG):
    """The command ``argv`` on ``config`` exits 2 with ``error: truncation``
    before allocating anything."""
    proc = run_under_2gib(argv, config)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error: truncation")


def shallowest_forms_that_do_not_fit():
    """The shallowest truncation of a two-letter, two-pole family whose bound
    on its normal forms, (2^(N+1) - 1) words times as many pole words, each
    term of FORM_TERM_BYTES, exceeds physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return min(N for N in range(64) if FORM_TERM_BYTES * (2 ** (N + 1) - 1) ** 2 > memory)


class TestShuffle:
    def test_two_letters(self, capsys):
        code, out, _ = run(capsys, "shuffle", "x0", "x1")
        assert code == 0
        assert out.splitlines() == ["1 * x0.x1", "1 * x1.x0"]

    def test_repeated_letter(self, capsys):
        code, out, _ = run(capsys, "shuffle", "x0", "x0")
        assert code == 0
        assert out.splitlines() == ["2 * x0.x0"]

    def test_unit(self, capsys):
        code, out, _ = run(capsys, "shuffle", "1", "x0")
        assert code == 0
        assert out.splitlines() == ["1 * x0"]

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "shuffle", "x0..x1", "x0")
        assert code == 2

    def test_with_config_alphabet(self, capsys):
        code, out, _ = run(capsys, "shuffle", "--config", POLYLOG, "x1", "x0")
        assert code == 0
        assert out.splitlines() == ["1 * x0.x1", "1 * x1.x0"]


class TestOrder:
    def test_sorts_graded_lex(self, capsys):
        code, out, _ = run(capsys, "order", "x1.x0", "x0.x1", "x1", "1", "x0")
        assert code == 0
        assert out.splitlines() == ["1", "x0", "x1", "x0.x1", "x1.x0"]


class TestEval:
    def test_depth_one_logs(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--config", POLYLOG, "--z0", "1/2", "--z", "0.25", "--N", "1"
        )
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert [r[0] for r in rows] == ["1", "x0", "x1"]
        assert rows[0][1] == "1"
        assert float(rows[1][1]) == pytest.approx(math.log(0.5), abs=1e-10)
        assert float(rows[2][1]) == pytest.approx(math.log(2 / 3), abs=1e-10)

    def test_truncation_zero_single_row(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--config", POLYLOG, "--z0", "1/2", "--z", "0.25", "--N", "0"
        )
        assert code == 0
        assert out.splitlines() == ["1\t1\t0\t0"]

    def test_endpoint_near_pole_is_geometry_error(self, capsys):
        code, _, err = run(capsys, "eval", "--config", POLYLOG, "--z", "1.01,0")
        assert code == 3
        assert "pole" in err

    @pytest.mark.parametrize("override", ["--z0=1/50", "--margin=2"])
    def test_basepoint_near_pole_is_parse_error(self, capsys, override):
        code, _, err = run(capsys, "eval", "--config", POLYLOG, "--z", "0.5", override)
        assert code == 2
        assert "basepoint" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--z=nan"],
            ["--z=inf,0"],
            ["--z=0.5", "--tol=nan"],
            ["--z=0.5", "--margin=nan"],
            ["--z=2,0", "--margin=nan"],  # the path would run through a pole
        ],
    )
    def test_non_finite_flags_rejected(self, capsys, argv):
        code, out, err = run(capsys, "eval", "--config", POLYLOG, *argv)
        assert code == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("field", ["tol", "margin"])
    def test_non_finite_config_rejected(self, capsys, tmp_path, field):
        text = Path(POLYLOG).read_text()
        bad = tmp_path / "bad.yaml"
        bad.write_text(re.sub(rf"^{field}: .*$", f"{field}: .nan", text, flags=re.M))
        code, out, err = run(capsys, "eval", "--config", str(bad), "--z", "0.5")
        assert code == 2
        assert out == "" and field in err

    def test_spaced_negative_values(self, capsys):
        code, out, _ = run(capsys, "eval", "--config", POLYLOG, "--z", "-1.08,0", "--N", "1")
        assert code == 0
        assert float(out.splitlines()[1].split("\t")[1]) == pytest.approx(math.log(1.08), abs=1e-10)
        code, out, _ = run(capsys, "certify", "--config", COUNTER, "--z0", "-1/2")
        assert code == 10
        assert out.startswith("DEPENDENT")

    def test_step_underflow_is_geometry_error(self, capsys):
        # the straight path clears pole 0 by about 6.7e-19, more than the
        # margin, but no double-precision step can pass that close
        code, out, err = run(
            capsys, "eval", "--config", POLYLOG, "--z=0.5,1e-18", "--margin=1e-20"
        )
        assert code == 3
        assert out == "" and "step size" in err

    @pytest.mark.parametrize(
        "config, N, z",
        [
            ("polylog", 10, (0.5, 0.8)),
            ("three-letter", 6, (1.3, -0.2)),
            ("counterexample", 5, (0.06, 0.01)),  # double poles: values up to ~1e4
            ("polylog", 0, (0.5, 0.8)),
            ("polylog", 1, (0.5, 0.8)),
            ("polylog", 6, (-0.5, 0.0)),  # the real axis: every imaginary part is 0
            ("non-ascii", 4, (0.5, 0.8)),
            ("one-letter", 5, (0.5, 0.8)),
        ],
        ids=["polylog", "three-letter", "counterexample", "N0", "N1", "real-axis", "non-ascii", "one-letter"],
    )
    def test_tsv_matches_per_word_formatter(self, capsys, tmp_path, config, N, z):
        path = {"polylog": POLYLOG, "counterexample": COUNTER}.get(config, str(tmp_path / "c.yaml"))
        if config == "three-letter":
            Path(path).write_text(THREE_LETTERS)
        elif config == "non-ascii":
            Path(path).write_text(Path(POLYLOG).read_text(encoding="utf-8").replace("x", "ω"), encoding="utf-8")
        elif config == "one-letter":
            Path(path).write_text('letters:\n  - {name: x0, pole: "0", weight: "1"}\nbasepoint: "-1"\n')
        cfg = load_config(path)
        table = eval_coeffs(
            cfg.multiplier,
            build_path(complex(cfg.basepoint), complex(*z), cfg.pole_set.approx, cfg.margin),
            N,
            cfg.tol,
        )
        want = per_word_tsv(cfg, table)
        argv = ["eval", "--config", path, "--z", "%r,%r" % z, "--N", str(N)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == want
        assert len(out.splitlines()) == sum(len(cfg.alphabet) ** n for n in range(N + 1))
        target = tmp_path / "table.tsv"
        assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == want.encode()
        if z[1] == 0:
            assert not table.coeffs.imag.any()

    def test_missing_z(self, capsys):
        code, _, _ = run(capsys, "eval", "--config", POLYLOG)
        assert code == 2

    def test_missing_config(self, capsys):
        code, _, _ = run(capsys, "eval", "--z", "0.25")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.tsv"
        code, out, _ = run(
            capsys,
            "eval", "--config", POLYLOG, "--z0", "1/2", "--z", "0.25",
            "--N", "0", "--output", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text() == "1\t1\t0\t0\n"


class TestOutput:
    @pytest.mark.parametrize(
        "argv",
        [["eval", "--z", "0.5", "--N", "3"], ["grouplike", "--z", "0.5"], ["certify"]],
        ids=["eval", "grouplike", "certify"],
    )
    def test_overwrites_a_longer_file(self, capsys, tmp_path, argv):
        # the file is rewritten in place and then cut to the new length
        code, want, _ = run(capsys, *argv, "--config", POLYLOG)
        target = tmp_path / "out"
        target.write_bytes(b"x" * (len(want) + 4096))
        assert run(capsys, *argv, "--config", POLYLOG, "--output", str(target)) == (code, "", "")
        assert target.read_bytes() == want.encode()

    def test_dev_null(self, capsys):
        # not a regular file: it gets the bytes and is not cut to length
        argv = ("eval", "--config", POLYLOG, "--z", "0.5", "--N", "2", "--output", os.devnull)
        assert run(capsys, *argv) == (0, "", "")


class TestConfigCache:
    def test_rewritten_config_is_reread(self, capsys, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(Path(POLYLOG).read_text())
        assert run(capsys, "certify", "--config", str(config)) == (0, "INDEPENDENT\n", "")
        config.write_text(Path(COUNTER).read_text())
        assert run(capsys, "certify", "--config", str(config))[0] == 10
        config.write_text("letters: [\n")
        for _ in range(2):  # a failure is never cached
            code, out, err = run(capsys, "certify", "--config", str(config))
            assert (code, out) == (2, "") and err.startswith(f"error: cannot parse config {config}")

    def test_overrides_do_not_leak(self, capsys):
        ev = ("eval", "--config", POLYLOG, "--z", "0.5")
        code, plain, _ = run(capsys, *ev)
        assert code == 0 and len(plain.splitlines()) == 2 ** 5 - 1  # truncation: 4
        for override in (["--N", "3"], ["--z0", "1/2"], ["--tol", "1e-6", "--margin", "0.1"]):
            assert run(capsys, *ev, *override)[1] != plain
            assert run(capsys, *ev) == (0, plain, "")
        cfg = load_config(POLYLOG)
        cfg.truncation = 9
        assert load_config(POLYLOG).truncation == 4

    def test_same_bytes_parsed_once(self, monkeypatch, tmp_path):
        calls = []
        real_load = yaml.load
        monkeypatch.setattr(yaml, "load", lambda *a, **k: calls.append(a) or real_load(*a, **k))
        config = tmp_path / "config.yaml"
        config.write_text(Path(POLYLOG).read_text())
        first, second = load_config(str(config)), load_config(str(config))
        assert len(calls) == 1 and first is not second
        assert first.multiplier is second.multiplier


class TestCallCaches:
    """What eval and grouplike keep across calls (every cache in
    hyperlog.cache.CACHES) serves no stale entry and stays within its
    byte budget."""

    def test_edited_weight_changes_the_table(self, capsys, tmp_path):
        config = tmp_path / "config.yaml"
        text = Path(POLYLOG).read_text()
        config.write_text(text)
        ev = ("--z", "0.5,0.25", "--N", "4")
        before = run(capsys, "eval", "--config", str(config), *ev)
        edited = text.replace('weight: "-1"', 'weight: "-2"')
        config.write_text(edited)
        after = run(capsys, "eval", "--config", str(config), *ev)
        assert before[0] == after[0] == 0 and before[1] != after[1]
        # the same text under another name is a config never seen before
        fresh = tmp_path / "fresh.yaml"
        fresh.write_text(edited)
        assert run(capsys, "eval", "--config", str(fresh), *ev) == after
        config.write_text(text)
        assert run(capsys, "eval", "--config", str(config), *ev) == before

    def test_alternating_configs_and_truncations_reuse_entries(self, capsys):
        calls = [
            (command, config, N)
            for config in (POLYLOG, COUNTER)
            for N in ("3", "5")
            for command in ("eval", "grouplike")
        ]
        outputs = []
        for _ in range(2):
            misses = [c.misses for c in CACHES]
            outputs.append([run(capsys, cmd, "--config", cfg, "--z", "0.5,0.25", "--N", N) for cmd, cfg, N in calls])
        assert all(code == 0 for code, _, _ in outputs[0])
        assert outputs[1] == outputs[0]
        assert [c.misses for c in CACHES] == misses  # the second round built nothing


def test_tables_build_no_word_list(capsys, monkeypatch):
    # tables are positional: neither the propagator nor eval and grouplike
    # spell out the list of every word (2047 tuples at N = 10)
    def refuse(self, n):
        raise AssertionError("words_up_to called")

    monkeypatch.setattr(Alphabet, "words_up_to", refuse)
    cfg = load_config(POLYLOG)
    path = build_path(complex(cfg.basepoint), 0.5 + 0.8j, cfg.pole_set.approx, cfg.margin)
    assert len(eval_coeffs(cfg.multiplier, path, 10, cfg.tol).values) == 2047
    code, out, _ = run(capsys, "eval", "--config", POLYLOG, "--z", "0.5,0.8", "--N", "10")
    assert code == 0 and len(out.splitlines()) == 2047
    for extra, want in (([], 0), (["--corrupt"], 11)):
        code, out, _ = run(capsys, "grouplike", "--config", POLYLOG, "--z", "0.5,0.8", *extra)
        assert code == want and out.startswith("defect\t")


class TestGrouplike:
    def test_clean(self, capsys):
        code, out, _ = run(
            capsys, "grouplike", "--config", POLYLOG, "--z0", "1/2", "--z", "0.25"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("defect\t")
        assert float(lines[0].split("\t")[1]) < 1e-9
        assert lines[1].startswith("pair\t")

    def test_corrupted(self, capsys):
        code, out, _ = run(
            capsys,
            "grouplike", "--config", POLYLOG, "--z0", "1/2", "--z", "0.25", "--corrupt",
        )
        assert code == 11
        assert float(out.splitlines()[0].split("\t")[1]) >= 0.19

    def test_vacuous_depth_one(self, capsys):
        code, out, _ = run(
            capsys, "grouplike", "--config", POLYLOG, "--z0", "1/2", "--z", "0.25", "--N", "1"
        )
        assert code == 0
        assert out.splitlines() == ["defect\t0"]


class TestCertify:
    def test_polylog_independent(self, capsys):
        code, out, _ = run(capsys, "certify", "--config", POLYLOG)
        assert code == 0
        assert out == "INDEPENDENT\n"

    def test_counterexample_dependent(self, capsys):
        code, out, _ = run(capsys, "certify", "--config", COUNTER)
        assert code == 10
        assert out == "DEPENDENT alpha=(1,0) f=-1/z\n"


class TestRelations:
    def test_counterexample(self, capsys):
        code, out, _ = run(capsys, "relations", "--config", COUNTER)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        poly, status, defect = lines[0].split("\t")
        assert poly == "x1.x0 + x0.x1 + 2*x1 - 1/2*x0"
        assert status == "EXACT"
        assert float(defect) < 1e-9

    def test_polylog_none(self, capsys):
        code, out, _ = run(capsys, "relations", "--config", POLYLOG, "--N", "2")
        assert code == 0
        assert out == "no relations found\n"

    def test_polylog_deep_none(self, capsys):
        # the family is free, so no relation prints at any depth
        code, out, _ = run(capsys, "relations", "--config", POLYLOG, "--N", "5")
        assert code == 0
        assert out == "no relations found\n"

    def test_truncation_zero_none(self, capsys):
        code, out, _ = run(capsys, "relations", "--config", COUNTER, "--N", "0")
        assert code == 0
        assert out == "no relations found\n"

    def test_depth4_large_denominator(self, capsys):
        # the coefficient 27/128 at z0 = -3 is exact, whatever its denominator
        code, out, _ = run(
            capsys, "relations", "--config", COUNTER, "--N", "4", "--z0", "-3", "--seed", "3"
        )
        assert code == 0
        assert "27/128*x0" in out
        assert len(out.splitlines()) == 16

    def test_relations_outputs_pinned(self, capsys):
        """The exit code and stdout of every seeded run at depths 2 and 3 at
        these basepoints: every relation is EXACT."""
        digest = hashlib.sha256()
        for N in ("2", "3"):
            for z0 in ("-1", "2", "i", "-3", "1/2", "1+i", "-1/2", "-1+i"):
                code, out, _ = run(
                    capsys, "relations", "--config", COUNTER, "--N", N, f"--z0={z0}", "--seed", "3"
                )
                digest.update(f"{code}\n{out}\n".encode())
        assert digest.hexdigest() == "8eaa32ac90e6878c8b6f9363f418d3f64bad0ec4fd23f8d9e0b523ffb9fa1aaa"

    def test_byte_identical_reruns(self, capsys):
        # covers the numeric table of eval as well as the relation search
        for argv in (
            ("relations", "--config", COUNTER),
            ("eval", "--config", POLYLOG, "--z", "0.5,0.01", "--N", "3"),
        ):
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 and out1 == out2, argv[0]


class TestParsing:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_interleaved_calls_share_no_state(self, capsys):
        # the parser is built once per process; each call starts afresh
        gl = ("grouplike", "--config", POLYLOG, "--z0", "1/2", "--z", "0.25")
        ev = ("eval", "--config", POLYLOG, "--z", "0.5,0.01", "--N", "3")
        assert run(capsys, "eval", "--config", POLYLOG, "--z", "0.5", "--bogus")[0] == 2
        assert run(capsys, *gl, "--corrupt")[0] == 11
        code, out, _ = run(capsys, *gl)
        assert code == 0 and float(out.splitlines()[0].split("\t")[1]) < 1e-9
        code, first, _ = run(capsys, *ev)
        assert code == 0 and first
        assert run(capsys, "frobnicate")[0] == 2
        assert run(capsys, *ev) == (0, first, "")

    def test_bad_config_yaml(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("letters: [\n")
        code, _, err = run(capsys, "certify", "--config", str(bad))
        assert code == 2

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", ["polylog.yaml", "counterexample.yaml"])
    def test_libyaml_and_python_loaders_agree(self, name):
        def fields(cfg):
            return (
                cfg.alphabet, cfg.pole_set, cfg.multiplier.terms, cfg.basepoint, cfg.truncation,
                cfg.tol, cfg.margin, cfg.seed,
            )

        path = ROOT / "configs" / name
        text = path.read_text()
        want = fields(ProblemConfig(yaml.load(text, Loader=yaml.SafeLoader)))
        assert fields(ProblemConfig(yaml.load(text, Loader=yaml.CSafeLoader))) == want
        assert fields(load_config(str(path))) == want

    def test_config_validation(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("letters:\n  - name: x0\n    pole: '0'\nbasepoint: '0'\n")
        code, _, err = run(capsys, "certify", "--config", str(bad))
        assert code == 2
        assert "basepoint" in err

    def test_overflowing_basepoint_flag(self, capsys):
        code, out, err = run(capsys, "certify", "--config", POLYLOG, "--z0=1e400,0")
        assert code == 2
        assert out == "" and err.startswith("error: basepoint")

    @pytest.mark.parametrize(
        "old, new, field",
        [('basepoint: "-1"', 'basepoint: "1e400"', "basepoint"),
         ('poles: ["0", "1"]', 'poles: ["0", "1e400"]', "pole")],
        ids=["basepoint", "pole"],
    )
    def test_overflowing_config_point(self, capsys, tmp_path, old, new, field):
        bad = tmp_path / "bad.yaml"
        bad.write_text(Path(POLYLOG).read_text().replace(old, new))
        if field == "pole":  # the letter must name the pole it sits at
            bad.write_text(bad.read_text().replace('pole: "1"', 'pole: "1e400"'))
        code, out, err = run(capsys, "certify", "--config", str(bad))
        assert code == 2
        assert out == "" and err.startswith(f"error: {field}")

    @pytest.mark.parametrize("command", ["eval", "grouplike", "relations"])
    def test_overflowing_weight(self, capsys, tmp_path, command):
        # exact in the config, past float range once the multiplier is
        # evaluated numerically; certify never leaves exact arithmetic
        bad = tmp_path / "bad.yaml"
        bad.write_text(Path(POLYLOG).read_text().replace('weight: "1"', 'weight: "1e400"'))
        code, out, err = run(capsys, command, "--config", str(bad), "--z", "0.5")
        assert code == 2
        assert out == "" and err.startswith("error: letter coefficients")
        assert run(capsys, "certify", "--config", str(bad)) == (0, "INDEPENDENT\n", "")

    @pytest.mark.parametrize(
        "config, old, new",
        [
            (POLYLOG, None, "letters: [1, 2]\n"),
            (POLYLOG, 'poles: ["0", "1"]', "poles: 5"),
            (POLYLOG, 'poles: ["0", "1"]', "poles: [abc]"),
            (POLYLOG, 'pole: "1"', 'pole: "abc"'),
            (POLYLOG, 'weight: "-1"', 'weight: "abc"'),
            (COUNTER, "pp: {(1,2): 1}", "pp: {(1,2): 1/0}"),
            (POLYLOG, 'weight: "-1"', 'weight: "1/0"'),
            (POLYLOG, 'poles: ["0", "1"]', 'poles: ["0", "1/0"]'),
            (POLYLOG, 'basepoint: "-1"', 'basepoint: "1/0"'),
            (POLYLOG, "truncation: 4", "truncation: .inf"),
            (POLYLOG, "truncation: 4", "truncation: 2.7"),
            (POLYLOG, "truncation: 4", "truncation: true"),
            (POLYLOG, "seed: 0", "seed: 0.5"),
            (POLYLOG, "seed: 0", "seed: false"),
            (POLYLOG, "seed: 0", "seed: -5"),
            (POLYLOG, "tol: 1.0e-12", "tol: true"),
            (POLYLOG, "margin: 0.05", "margin: true"),
        ],
        ids=[
            "letters-not-mappings", "poles-not-list", "poles-junk", "pole-junk", "weight-junk",
            "u-zero-denominator", "weight-zero-denominator", "pole-zero-denominator",
            "basepoint-zero-denominator", "truncation-infinite", "truncation-float",
            "truncation-boolean", "seed-float", "seed-boolean", "seed-negative",
            "tol-boolean", "margin-boolean",
        ],
    )
    def test_malformed_config_field(self, capsys, tmp_path, config, old, new):
        # each once crashed with a traceback and exit 1
        bad = tmp_path / "bad.yaml"
        text = Path(config).read_text()
        bad.write_text(new if old is None else text.replace(old, new))
        assert bad.read_text() != text
        code, out, err = run(capsys, "certify", "--config", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_non_utf8_config(self, capsys, tmp_path):
        # byte 0xff in a letter name raised UnicodeDecodeError with exit 1
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(Path(POLYLOG).read_bytes().replace(b"name: x1", b"name: x\xff1"))
        code, out, err = run(capsys, "certify", "--config", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot parse config {bad}: ") and "Traceback" not in err
        assert f'in "{bad}", position' in err

    @pytest.mark.parametrize("field", ["tol", "margin"])
    def test_boolean_tol_and_margin(self, capsys, tmp_path, field):
        # float(True) is 1.0: eval printed a table at tol 1 with exit 0
        bad = tmp_path / "bad.yaml"
        bad.write_text(re.sub(rf"^{field}: .*$", f"{field}: true", Path(POLYLOG).read_text(), flags=re.M))
        code, out, err = run(capsys, "eval", "--config", str(bad), "--z", "0.5")
        assert (code, out, err) == (2, "", f"error: {field} must be a number, got True\n")

    def test_tol_as_a_yaml_string(self, capsys, tmp_path):
        # PyYAML reads 1e-12 (no dot) as a string
        config = tmp_path / "string.yaml"
        config.write_text(Path(POLYLOG).read_text().replace("tol: 1.0e-12", "tol: 1e-12"))
        assert yaml.safe_load(config.read_text())["tol"] == "1e-12"
        argv = ["eval", "--z", "0.5", "--N", "2"]
        assert run(capsys, *argv, "--config", str(config)) == run(capsys, *argv, "--config", POLYLOG)

    @pytest.mark.parametrize(
        "weight, z0",
        [("1e9999999", "-1"), ("-1", "1e9999999,0"), ("-1", "0,1e-9999999")],
        ids=["weight", "z0", "z0-negative-exponent"],
    )
    def test_huge_decimal_exponent(self, capsys, tmp_path, weight, z0):
        # Fraction would expand the exponent in full: 1e999999 took 42 s
        config = tmp_path / "big.yaml"
        config.write_text(Path(POLYLOG).read_text().replace('weight: "-1"', f'weight: "{weight}"'))
        start = time.perf_counter()
        code, out, err = run(capsys, "certify", "--config", str(config), f"--z0={z0}")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "z0, reason",
        [("1e9999999,0", "decimal exponent of '1e9999999' exceeds 4300"),
         ("1/0,0", "zero denominator in '1/0'"),
         ("1,2,3", "Invalid literal for Fraction: '2,3'")],
        ids=["huge-exponent", "zero-denominator", "three-parts"],
    )
    def test_exact_point_error_says_why(self, capsys, z0, reason):
        code, out, err = run(capsys, "certify", "--config", POLYLOG, f"--z0={z0}")
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse exact point {z0!r}: {reason}\n"

    def test_decimal_exponent_at_the_limit(self, capsys, tmp_path):
        config = tmp_path / "big.yaml"
        config.write_text(Path(POLYLOG).read_text().replace('weight: "-1"', 'weight: "1e4300"'))
        assert run(capsys, "certify", "--config", str(config)) == (0, "INDEPENDENT\n", "")

    def test_bad_z_format(self, capsys):
        code, _, _ = run(capsys, "eval", "--config", POLYLOG, "--z", "nope")
        assert code == 2

    def test_z_reads_the_exact_point_grammar(self, capsys):
        decimal = run(capsys, "eval", "--config", POLYLOG, "--z", "0.5,0.25")
        assert decimal[0] == 0
        assert run(capsys, "eval", "--config", POLYLOG, "--z", "1/2+1/4*i") == decimal

    def test_overflowing_z(self, capsys):
        code, out, err = run(capsys, "eval", "--config", POLYLOG, "--z=1e400,0")
        assert (code, out) == (2, "")
        assert err.startswith("error: --z must be a finite point") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["certify", "relations"])
    def test_negative_seed_flag(self, capsys, command):
        # numpy's default_rng raised ValueError with a traceback and exit 1
        argv = [command, "--config", COUNTER, "--seed", "-1"]
        assert run(capsys, *argv) == (2, "", "error: seed must be >= 0\n")

    @pytest.mark.parametrize(
        "name",
        ['""', '"1"', "1", '"x.0"', '"a\\tb"', '"a b"', '"a\\0b"', '"a\\nb"', '"\\e"'],
        ids=["empty", "one", "one-as-number", "dot", "tab", "space", "nul", "newline", "escape"],
    )
    def test_bad_letter_name(self, capsys, tmp_path, name):
        # "x.0" would spell x.0.x.0 for a word of length 2, a tab shift every
        # column, and "1" spell the empty word
        bad = tmp_path / "bad.yaml"
        bad.write_text(Path(POLYLOG).read_text().replace("name: x1", f"name: {name}"))
        for command in ("eval", "certify"):
            code, out, err = run(capsys, command, "--config", str(bad), "--z", "0.5")
            assert code == 2
            assert out == "" and err.startswith("error: letter name")

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    @pytest.mark.parametrize("argv", [["eval", "--z", "0.5", "--N", "2"], ["certify"]], ids=["eval", "certify"])
    def test_unwritable_output(self, capsys, tmp_path, argv, where):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "out.tsv"
        code, out, err = run(capsys, *argv, "--config", POLYLOG, "--output", str(target))
        assert code == 2
        assert out == "" and err.startswith(f"error: cannot write output {target}")
        assert run(capsys, *argv, "--config", POLYLOG, "--output", str(tmp_path / "ok"))[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--N=40"],
            ["grouplike", "--N=40"],
            ["eval", "--N=200"],
            ["grouplike", "--N=200"],
            ["relations", "--N=200"],
        ],
        ids=["eval-40", "grouplike-40", "eval-200", "grouplike-200", "relations-200"],
    )
    def test_truncation_too_large(self, argv):
        # relations checks memory only for a dependent family; a free one
        # is answered without normal forms (test_free_family_needs_no_memory)
        assert_rejected_under_2gib(argv, COUNTER if argv[0] == "relations" else POLYLOG)

    @pytest.mark.parametrize(
        "letters, N, why",
        [(1, 23, "position sets"), (2, 17, "triples"), (3, 13, "triples"), (1, 10**9, "position sets")],
    )
    def test_grouplike_depth_too_large(self, capsys, tmp_path, monkeypatch, letters, N, why):
        # refused before a table is built: the deepest accepted check takes
        # seconds, one past it up to an hour (two letters at N = 20)
        config = tmp_path / "letters.yaml"
        poles = ["0", "1", "-1"][:letters]
        config.write_text(
            f"poles: [{', '.join(map(repr, poles))}]\nletters:\n"
            + "".join(f"  - {{name: x{i}, pole: '{p}'}}\n" for i, p in enumerate(poles))
            + "basepoint: '1/2*i'\n"
        )

        def refuse(*args):
            raise AssertionError("table built")

        monkeypatch.setattr(cli, "eval_coeffs", refuse)
        code, out, err = run(capsys, "grouplike", "--config", str(config), "--z", "0.5", f"--N={N}")
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith(f"error: truncation {N} is too large for the group-like check: ")
        assert why in err
        if N < 100:
            assert cli._grouplike_excess(letters, N - 1) is None

    @pytest.mark.parametrize("n, refused", [(10, False), (11, True), (30, True), (10**5, True)])
    def test_shuffle_too_large(self, capsys, monkeypatch, n, refused):
        # x0.x1... shuffle x1.x0..., both of length n, has 2^n words out of
        # C(2n, n) interleavings; n = 10 is the longest accepted
        if refused:
            def refuse(*args):
                raise AssertionError("shuffle computed")

            monkeypatch.setattr(cli, "shuffle_product", refuse)
        u, v = (".".join(["x0", "x1"][(k + s) % 2] for k in range(n)) for s in (0, 1))
        code, out, err = run(capsys, "shuffle", u, v)
        if refused:
            assert (code, out) == (2, "")
            want = f"words of lengths {n} and {n} have more than {cli.SHUFFLE_INTERLEAVINGS} interleavings"
            assert err == f"error: {want}\n"
        else:
            assert code == 0 and len(out.splitlines()) == 2**n

    def test_grouplike_bound_counts_the_triples_read(self):
        # the triples of the check's blocks of lengths p <= q, p + q <= N
        for letters, N in ((2, 16), (2, 17), (3, 12), (3, 13)):
            triples = sum(
                letters ** (p + q) * math.comb(p + q, p)
                for p in range(1, N // 2 + 1)
                for q in range(p, N - p + 1)
            )
            assert (triples > GROUPLIKE_TRIPLES) == (cli._grouplike_excess(letters, N) is not None)

    def test_tsv_rows_too_large(self):
        # the deepest polylog table that fits in physical memory, whose TSV
        # rows and their copy do not
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        N = max(n for n in range(64) if 16 * (2 ** (n + 1) - 1) <= memory)
        assert (2 ** (N + 1) - 1) * (16 + 2 * row_width(N, ["x0", "x1"])) > memory
        assert_rejected_under_2gib(["eval", f"--N={N}"])

    def test_relations_forms_too_large(self):
        assert_rejected_under_2gib(["relations", f"--N={shallowest_forms_that_do_not_fit()}"], COUNTER)

    @pytest.mark.parametrize("N", ["form", "200"])
    def test_free_family_needs_no_memory(self, N):
        # the residue criterion answers polylog without normal forms, even at
        # depths whose forms would not fit in memory
        N = shallowest_forms_that_do_not_fit() if N == "form" else int(N)
        proc = run_under_2gib(["relations", f"--N={N}"], POLYLOG)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "no relations found\n", "")
