import math
import re
from pathlib import Path

import pytest

from hyperlog.cli import main

ROOT = Path(__file__).resolve().parent.parent
POLYLOG = str(ROOT / "configs" / "polylog.yaml")
COUNTER = str(ROOT / "configs" / "counterexample.yaml")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_truncation_zero_none(self, capsys):
        code, out, _ = run(capsys, "relations", "--config", COUNTER, "--N", "0")
        assert code == 0
        assert out == "no relations found\n"

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

    def test_bad_config_yaml(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("letters: [\n")
        code, _, err = run(capsys, "certify", "--config", str(bad))
        assert code == 2

    def test_config_validation(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("letters:\n  - name: x0\n    pole: '0'\nbasepoint: '0'\n")
        code, _, err = run(capsys, "certify", "--config", str(bad))
        assert code == 2
        assert "basepoint" in err

    def test_bad_z_format(self, capsys):
        code, _, _ = run(capsys, "eval", "--config", POLYLOG, "--z", "nope")
        assert code == 2
