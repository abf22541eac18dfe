"""Command-line front end: shuffle/order on words, coefficient tables,
group-like checks, independence certification, and relation discovery.

Exit codes: 0 success (or independent), 2 parse error, 3 path geometry,
10 dependent verdict, 11 group-like defect above threshold.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import yaml

from .cert import (
    RelationStatus,
    certify,
    discover_relations,
)
from .chen import (
    PathGeometryError,
    StepSizeUnderflowError,
    build_path,
    eval_coeffs,
    grouplike_report,
)
from .ncalg import Multiplier, NCPolynomial, format_ncpoly, shuffle_product
from .ratfun import (
    GaussianRational,
    PoleEvaluationError,
    PoleLocalizedRational,
    PoleSet,
    format_gaussian,
    format_plr_pretty,
    parse_gaussian,
    parse_plr,
)
from .words import Alphabet, Word

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_DEPENDENT = 10
EXIT_GROUPLIKE = 11


class ConfigError(ValueError):
    pass


class ProblemConfig:
    """Multiplier plus evaluation defaults parsed from a YAML config."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        letters = data.get("letters")
        if not letters:
            raise ConfigError("config needs a nonempty 'letters' list")
        names = []
        for entry in letters:
            if "name" not in entry:
                raise ConfigError("each letter needs a 'name'")
            names.append(str(entry["name"]))
        self.alphabet = Alphabet(names)

        declared = [str(p) for p in data.get("poles", [])]
        pole_values = [parse_gaussian(p) for p in declared]
        explicit = bool(pole_values)
        needs_explicit = any("u" in e for e in letters)
        if needs_explicit and not explicit:
            raise ConfigError("letters with full 'u' require a top-level 'poles' list")
        if not explicit:
            seen = []
            for entry in letters:
                if "pole" not in entry:
                    raise ConfigError(f"letter {entry['name']}: need 'pole' or 'u'")
                p = parse_gaussian(str(entry["pole"]))
                if p not in seen:
                    seen.append(p)
            pole_values = seen
        try:
            self.pole_set = PoleSet(pole_values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

        terms = {}
        for idx, entry in enumerate(letters):
            if "u" in entry:
                try:
                    terms[idx] = parse_plr(str(entry["u"]), self.pole_set)
                except ValueError as exc:
                    raise ConfigError(f"letter {entry['name']}: {exc}") from None
            elif "pole" in entry:
                p = parse_gaussian(str(entry["pole"]))
                weight = parse_gaussian(str(entry.get("weight", "1")))
                pole_index = next(
                    (i for i, a in enumerate(self.pole_set) if a == p), None
                )
                if pole_index is None:
                    raise ConfigError(
                        f"letter {entry['name']}: pole {format_gaussian(p)} "
                        "not in the declared pole list"
                    )
                terms[idx] = PoleLocalizedRational.simple_pole(
                    self.pole_set, pole_index, weight
                )
            else:
                raise ConfigError(f"letter {entry['name']}: need 'pole' or 'u'")
        self.multiplier = Multiplier(self.alphabet, self.pole_set, terms)

        try:
            self.basepoint = parse_gaussian(str(data.get("basepoint", "-1")))
            self.truncation = int(data.get("truncation", 3))
            self.tol = float(data.get("tol", 1e-12))
            self.margin = float(data.get("margin", 0.05))
            self.seed = int(data.get("seed", 0))
            self.samples = int(data.get("samples", 24))
            self.relation_tol = float(data.get("relation_tol", 1e-8))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad scalar field: {exc}") from None
        self.validate()

    def validate(self) -> None:
        """Check the evaluation settings; rerun after command-line overrides."""
        if self.truncation < 0:
            raise ConfigError("truncation must be >= 0")
        for name in ("tol", "margin"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        bp = complex(self.basepoint)
        for a in self.pole_set.approx:
            if abs(bp - a) <= self.margin:
                raise ConfigError(
                    f"basepoint {format_gaussian(self.basepoint)} within margin of pole {a}"
                )


def load_config(path: str) -> ProblemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    return ProblemConfig(data or {})


def _parse_complex(text: str) -> complex:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) in (1, 2) and all(math.isfinite(p) for p in parts):
        return complex(*parts)
    raise ConfigError(f"cannot parse complex number {text!r} (want finite RE or RE,IM)")


def _parse_exact_point(text: str) -> GaussianRational:
    """Exact point from `RE,IM` (decimal digits kept exact) or Gaussian
    rational text such as `-1` or `1/2+3/4*i`."""
    try:
        if "," in text:
            re_txt, im_txt = text.split(",")
            from fractions import Fraction

            return GaussianRational(Fraction(re_txt.strip()), Fraction(im_txt.strip()))
        return parse_gaussian(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse exact point {text!r}") from None


_NAME_SUFFIX = re.compile(r"^(.*?)(\d*)$")


def _adhoc_alphabet(word_texts) -> Alphabet:
    """Alphabet inferred from bare word arguments, letters sorted by name
    with numeric suffixes compared numerically (x2 before x10)."""
    names = set()
    for text in word_texts:
        if text.strip() == "1":
            continue
        names.update(part for part in text.strip().split(".") if part)
    if not names:
        names = {"x0"}

    def key(n):
        m = _NAME_SUFFIX.match(n)
        return (m.group(1), int(m.group(2)) if m.group(2) else -1)

    return Alphabet(sorted(names, key=key))


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _print(out_path, lines):
    text = "\n".join(lines) + "\n" if lines else ""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML problem configuration")
    common.add_argument("--z", help="endpoint RE or RE,IM")
    common.add_argument("--z0", help="basepoint override, exact Gaussian rational")
    common.add_argument("--N", type=int, help="truncation override")
    common.add_argument("--tol", type=float, help="evaluation tolerance override")
    common.add_argument("--margin", type=float, help="pole-clearance margin override")
    common.add_argument("--seed", type=int, help="sampling seed override")
    common.add_argument("--output", help="write output to this path instead of stdout")
    return common


def _build_argparser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="hyperlog",
        description="Hyperlogarithm coefficient toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("shuffle", parents=[common], help="shuffle product of two words")
    p.add_argument("u")
    p.add_argument("v")
    p = sub.add_parser("order", parents=[common], help="sort words in graded lex order")
    p.add_argument("words", nargs="+")
    sub.add_parser("eval", parents=[common], help="coefficient table at an endpoint")
    p = sub.add_parser("grouplike", parents=[common], help="group-like defect report")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="debug: corrupt one depth-2 coefficient by +0.1 before the check",
    )
    sub.add_parser("certify", parents=[common], help="independence certificate")
    sub.add_parser("relations", parents=[common], help="discover linear relations")
    return parser


def _require_config(args) -> ProblemConfig:
    if not args.config:
        raise ConfigError("this command needs --config")
    cfg = load_config(args.config)
    if args.z0 is not None:
        cfg.basepoint = _parse_exact_point(args.z0)
    overrides = {"truncation": args.N, "tol": args.tol, "margin": args.margin, "seed": args.seed}
    for name, value in overrides.items():
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


def _cmd_shuffle(args) -> int:
    if args.config:
        alphabet = load_config(args.config).alphabet
    else:
        alphabet = _adhoc_alphabet([args.u, args.v])
    try:
        u = alphabet.word(args.u)
        v = alphabet.word(args.v)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    product = shuffle_product(NCPolynomial.monomial(u), NCPolynomial.monomial(v))
    lines = [
        f"{product.terms[w]} * {alphabet.format_word(w)}" for w in product.support()
    ]
    _print(args.output, lines)
    return EXIT_OK


def _cmd_order(args) -> int:
    if args.config:
        alphabet = load_config(args.config).alphabet
    else:
        alphabet = _adhoc_alphabet(args.words)
    try:
        parsed = [alphabet.word(t) for t in args.words]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    lines = [alphabet.format_word(w) for w in sorted(parsed)]
    _print(args.output, lines)
    return EXIT_OK


def _table_for_endpoint(cfg: ProblemConfig, z_text: str, N: int):
    if z_text is None:
        raise ConfigError("this command needs --z RE,IM")
    zc = _parse_complex(z_text)
    path = build_path(complex(cfg.basepoint), zc, cfg.pole_set.approx, cfg.margin)
    return eval_coeffs(cfg.multiplier, path, N, cfg.tol)


def _cmd_eval(args) -> int:
    cfg = _require_config(args)
    table = _table_for_endpoint(cfg, args.z, cfg.truncation)
    lines = []
    for w in table.words():
        val = table[w]
        err = table.error_estimates.get(len(w), 0.0)
        lines.append(
            "\t".join(
                [cfg.alphabet.format_word(w), _fmt(val.real), _fmt(val.imag), _fmt(err)]
            )
        )
    _print(args.output, lines)
    return EXIT_OK


def _cmd_grouplike(args) -> int:
    cfg = _require_config(args)
    table = _table_for_endpoint(cfg, args.z, cfg.truncation)
    if args.corrupt:
        for w in table.words():
            if len(w) == 2:
                table.values[w] += 0.1
                break
    defect, worst = grouplike_report(table)
    lines = [f"defect\t{_fmt(defect)}"]
    if worst is not None:
        lines.append(
            f"pair\t{cfg.alphabet.format_word(worst[0])}\t{cfg.alphabet.format_word(worst[1])}"
        )
    _print(args.output, lines)
    return EXIT_OK if defect < 10.0 * cfg.tol else EXIT_GROUPLIKE


def _cmd_certify(args) -> int:
    cfg = _require_config(args)
    verdict = certify(cfg.multiplier)
    if verdict.is_independent:
        _print(args.output, ["INDEPENDENT"])
        return EXIT_OK
    alpha_txt = ",".join(format_gaussian(a) for a in verdict.alpha)
    f_txt = format_plr_pretty(verdict.witness_f)
    _print(args.output, [f"DEPENDENT alpha=({alpha_txt}) f={f_txt}"])
    return EXIT_DEPENDENT


def _cmd_relations(args) -> int:
    cfg = _require_config(args)
    found = discover_relations(
        cfg.multiplier,
        cfg.basepoint,
        cfg.truncation,
        sample_count=max(cfg.samples, len(cfg.alphabet.words_up_to(cfg.truncation))),
        tol=cfg.relation_tol,
        eval_tol=cfg.tol,
        margin=cfg.margin,
        seed=cfg.seed,
    )
    if not found:
        _print(args.output, ["no relations found"])
        return EXIT_OK
    lines = []
    for rel in found:
        defect = _fmt(rel.defect) if rel.defect is not None else "-"
        lines.append(
            "\t".join(
                [format_ncpoly(rel.poly, cfg.alphabet), rel.status.value, defect]
            )
        )
    _print(args.output, lines)
    return EXIT_OK


_HANDLERS = {
    "shuffle": _cmd_shuffle,
    "order": _cmd_order,
    "eval": _cmd_eval,
    "grouplike": _cmd_grouplike,
    "certify": _cmd_certify,
    "relations": _cmd_relations,
}


_NEGATIVE_VALUE = re.compile(r"^-[\d.]")


def _join_negative_values(argv):
    """`--z0 -1/2` -> `--z0=-1/2`; argparse would read `-1/2` as an option."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_argparser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PathGeometryError, StepSizeUnderflowError, PoleEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
