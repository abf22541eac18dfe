"""Command-line front end: shuffle/order on words, coefficient tables,
group-like checks, independence certification, and relation discovery.

Exit codes: 0 success (or independent), 2 parse error, 3 path geometry,
10 dependent verdict, 11 group-like defect above threshold.
"""

from __future__ import annotations

import argparse
import copy
import functools
import io
import math
import os
import re
import stat
import sys

import yaml

from .cert import certify, discover_relations
from .chen import (
    PathGeometryError,
    StepSizeUnderflowError,
    build_path,
    eval_coeffs,
    float_form,
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
from .tsv import coefficient_tsv, row_width
from .words import Alphabet, Word, graded_starts

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_DEPENDENT = 10
EXIT_GROUPLIKE = 11


class ConfigError(ValueError):
    pass


def _integer_field(data: dict, name: str, default: int) -> int:
    """A YAML integer; a float, a boolean or a string is a ConfigError."""
    value = data.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _float_field(data: dict, name: str, default: float) -> float:
    """A YAML number, or a string such as `1e-12` that PyYAML does not read as
    one; a boolean or anything else is a ConfigError."""
    value = data.get(name, default)
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


class ProblemConfig:
    """Multiplier plus evaluation defaults parsed from a YAML config.

    A malformed shape raises ConfigError; a malformed value raises the
    ValueError of its parser, which :func:`load_config` reports as one."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        letters = data.get("letters")
        if not letters or not isinstance(letters, list):
            raise ConfigError("config needs a nonempty 'letters' list")
        if not all(isinstance(entry, dict) and "name" in entry for entry in letters):
            raise ConfigError("each letter must be a mapping with a 'name'")
        poles = data.get("poles", [])
        if not isinstance(poles, list):
            raise ConfigError("'poles' must be a list")
        self.alphabet = Alphabet([str(entry["name"]) for entry in letters])

        pole_values = [parse_gaussian(str(p)) for p in poles]
        if not pole_values:
            if any("u" in entry for entry in letters):
                raise ConfigError("letters with full 'u' require a top-level 'poles' list")
            for entry in letters:
                if "pole" not in entry:
                    raise ConfigError(f"letter {entry['name']}: need 'pole' or 'u'")
            # each distinct pole once, in the order the letters name them
            pole_values = list(dict.fromkeys(parse_gaussian(str(e["pole"])) for e in letters))
        self.pole_set = PoleSet(pole_values)

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
                if p not in self.pole_set.points:
                    raise ConfigError(
                        f"letter {entry['name']}: pole {format_gaussian(p)} "
                        "not in the declared pole list"
                    )
                terms[idx] = PoleLocalizedRational.simple_pole(
                    self.pole_set, self.pole_set.points.index(p), weight
                )
            else:
                raise ConfigError(f"letter {entry['name']}: need 'pole' or 'u'")
        self.multiplier = Multiplier(self.alphabet, self.pole_set, terms)

        self.basepoint = parse_gaussian(str(data.get("basepoint", "-1")))
        self.truncation = _integer_field(data, "truncation", 3)
        self.seed = _integer_field(data, "seed", 0)
        self.tol = _float_field(data, "tol", 1e-12)
        self.margin = _float_field(data, "margin", 0.05)
        self.validate()

    def validate(self) -> None:
        """Check the evaluation settings; rerun after command-line overrides."""
        if self.truncation < 0:
            raise ConfigError("truncation must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("tol", "margin"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        try:
            bp = complex(self.basepoint)
        except OverflowError:
            raise ConfigError("basepoint must lie in floating-point range") from None
        for a in self.pole_set.approx:
            if abs(bp - a) <= self.margin:
                raise ConfigError(
                    f"basepoint {format_gaussian(self.basepoint)} within margin of pole {a}"
                )


def load_config(path: str) -> ProblemConfig:
    """The config at ``path``, parsed once per distinct content in a process.

    Each call gets its own shallow copy, so overrides set on it reach no
    other call; the parts the copies share are immutable."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return copy.copy(_parse_config(text, path))


@functools.lru_cache(maxsize=16)
def _parse_config(text: bytes, path: str) -> ProblemConfig:
    """The config in ``text``; ``path`` names it in messages.  A failure is
    raised afresh on every call, as lru_cache stores no exception."""
    stream = io.BytesIO(text)
    stream.name = path  # so that the position of a syntax error names the file
    try:
        data = yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:  # also bytes that are not UTF-8
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    try:
        return ProblemConfig(data or {})
    except ValueError as exc:  # from the parsers, Alphabet or PoleSet
        raise ConfigError(str(exc)) from None


def _parse_exact_point(text: str) -> GaussianRational:
    """Exact point from `RE,IM` (decimal digits kept exact) or Gaussian
    rational text such as `-1` or `1/2+3/4*i`."""
    try:
        if "," in text:
            re_txt, im_txt = text.split(",", 1)
            return GaussianRational(re_txt, im_txt)
        return parse_gaussian(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse exact point {text!r}: {exc}") from None


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
    _write(out_path, "\n".join(lines).encode() + b"\n" if lines else b"")


def _write(out_path, data: bytes):
    """Write UTF-8 bytes to ``out_path``, or else to standard output.

    A regular file is overwritten in place and then cut to length: on ext4,
    truncating a file to zero before rewriting it makes its blocks be
    allocated anew when it is closed (rewriting 128 KB took 0.21 ms that
    way and 0.03 ms in place, on an ext4 root mounted with discard)."""
    if out_path:
        try:
            fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
            with open(fd, "wb") as fh:
                fh.write(data)
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
        except OSError as exc:
            raise ConfigError(f"cannot write output {out_path}: {exc}") from None
    else:
        sys.stdout.write(data.decode())


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML problem configuration")
    common.add_argument("--z", help="endpoint, read as --z0 is, in floating-point range")
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


_PARSER = _build_argparser()  # parse_args keeps no state between calls


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


def _require_numeric_config(args) -> ProblemConfig:
    """The config of a command that evaluates the multiplier in floats."""
    cfg = _require_config(args)
    try:
        float_form(cfg.multiplier)  # kept for eval_coeffs, which reads it next
    except OverflowError:
        raise ConfigError("letter coefficients must lie in floating-point range") from None
    return cfg


def _parse_words(args, texts):
    """The alphabet of --config (else inferred from the texts) and the words."""
    try:
        alphabet = load_config(args.config).alphabet if args.config else _adhoc_alphabet(texts)
        return alphabet, [alphabet.word(t) for t in texts]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# u shuffle v has at most C(|u|+|v|, |u|) words, all distinct when no letter
# repeats: at C(20, 10) = 184756 the command took 1.5 s and 216 MB on a 2-core
# VM, and two alternating words of length 30 would print about 1e9 lines.
SHUFFLE_INTERLEAVINGS = 1 << 18


def _cmd_shuffle(args) -> int:
    alphabet, (u, v) = _parse_words(args, [args.u, args.v])
    # C(|u|+|v|, i) grows up to i = min(|u|, |v|), so stop once past the bound:
    # math.comb took 17 s on two words of 700000 letters
    n, count = len(u) + len(v), 1
    for i in range(1, min(len(u), len(v)) + 1):
        count = count * (n - i + 1) // i
        if count > SHUFFLE_INTERLEAVINGS:
            raise ConfigError(
                f"words of lengths {len(u)} and {len(v)} have more than "
                f"{SHUFFLE_INTERLEAVINGS} interleavings"
            )
    product = shuffle_product(NCPolynomial.monomial(u), NCPolynomial.monomial(v))
    lines = [
        f"{product.terms[w]} * {alphabet.format_word(w)}" for w in product.support()
    ]
    _print(args.output, lines)
    return EXIT_OK


def _cmd_order(args) -> int:
    alphabet, parsed = _parse_words(args, args.words)
    lines = [alphabet.format_word(w) for w in sorted(parsed)]
    _print(args.output, lines)
    return EXIT_OK


def _word_count(letters: int, N: int) -> int:
    """The number of words of length <= N over ``letters`` letters; past length
    64 a lower bound of at least 2^64, or N + 1 for one letter."""
    return max(N + 1, graded_starts(letters, min(N, 64))[-1])


def _require_memory(cfg: ProblemConfig, nbytes: int) -> None:
    """Exit 2 before a command builds data larger than physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        raise ConfigError(
            f"truncation {cfg.truncation} is too large: it needs up to {nbytes} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


# bytes per term of a relation search's normal forms, whose terms are at most
# (words) x (words over the poles): the traced peak of the search over that
# bound read 87-145 on configs/counterexample.yaml at N = 6-7, and 338-701 at
# N = 2-5 on a three-pole multiplier with polynomial parts
FORM_TERM_BYTES = 1024


# The group-like check reads sum_(p <= q, p + q <= N) L^(p+q) C(p+q, p)
# (u, v, position set) triples and holds the C(p+q, p) position sets of one
# pair of lengths at a time.  These bounds take two letters up to N = 16,
# three up to N = 12 and one up to N = 22 (on a 2-core VM: 24 s, and 2.4 s
# with 330 MB at one letter); at N = 20 two letters would read 8.4e11
# triples, about an hour.
GROUPLIKE_TRIPLES = 1 << 32
GROUPLIKE_POSITION_SETS = 1 << 20


def _grouplike_excess(letters: int, N: int):
    """Why the group-like check at truncation N over ``letters`` letters is
    too large, or None; stops at the first length past a bound."""
    triples = 0
    for n in range(2, N + 1):
        if math.comb(n, n // 2) > GROUPLIKE_POSITION_SETS:
            return f"words of lengths summing to {n} have more than {GROUPLIKE_POSITION_SETS} position sets"
        triples += letters**n * sum(math.comb(n, p) for p in range(1, n // 2 + 1))
        if triples > GROUPLIKE_TRIPLES:
            return f"it would read more than {GROUPLIKE_TRIPLES} (u, v, position set) triples"
    return None


def _table_for_endpoint(cfg: ProblemConfig, z_text: str, N: int, word_bytes: int = 16):
    """The table at ``--z``, once ``word_bytes`` per word (at least the table's
    one complex) fit in physical memory."""
    _require_memory(cfg, word_bytes * _word_count(len(cfg.alphabet), cfg.truncation))
    if z_text is None:
        raise ConfigError("this command needs --z RE,IM")
    try:
        zc = complex(_parse_exact_point(z_text))
    except (ConfigError, OverflowError) as exc:
        raise ConfigError(f"--z must be a finite point in floating-point range: {exc}") from None
    path = build_path(complex(cfg.basepoint), zc, cfg.pole_set.approx, cfg.margin)
    return eval_coeffs(cfg.multiplier, path, N, cfg.tol)


def _cmd_eval(args) -> int:
    cfg = _require_numeric_config(args)
    names = [l.name for l in cfg.alphabet]
    # the table, then the TSV's rows and their copy
    word_bytes = 16 + 2 * row_width(cfg.truncation, names)
    table = _table_for_endpoint(cfg, args.z, cfg.truncation, word_bytes)
    _write(args.output, coefficient_tsv(table, names))
    return EXIT_OK


def _cmd_grouplike(args) -> int:
    cfg = _require_numeric_config(args)
    excess = _grouplike_excess(len(cfg.alphabet), cfg.truncation)
    if excess:
        raise ConfigError(f"truncation {cfg.truncation} is too large for the group-like check: {excess}")
    table = _table_for_endpoint(cfg, args.z, cfg.truncation)
    if args.corrupt and cfg.truncation >= 2:
        table.values[Word((0, 0))] += 0.1
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
    cfg = _require_numeric_config(args)
    if not certify(cfg.multiplier).is_independent:  # a free family builds no normal form
        N = cfg.truncation
        terms = _word_count(len(cfg.alphabet), N) * _word_count(len(cfg.pole_set), N)
        _require_memory(cfg, FORM_TERM_BYTES * terms)
    found = discover_relations(
        cfg.multiplier, cfg.basepoint, cfg.truncation,
        eval_tol=cfg.tol, margin=cfg.margin, seed=cfg.seed,
    )
    if not found:
        _print(args.output, ["no relations found"])
        return EXIT_OK
    lines = [
        "\t".join([format_ncpoly(rel.poly, cfg.alphabet), rel.status.value, _fmt(rel.defect)])
        for rel in found
    ]
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
    try:
        args = _PARSER.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
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
