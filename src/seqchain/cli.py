"""Command-line surface.

Subcommands: ``chain``, ``classify``, ``witness``, ``approx``, ``basis``,
``recover``, ``decompose``.  Reports are deterministic: identical inputs
and config produce byte-identical output.  Exit codes: 0 success, 2 when
the only outcome is an undecided verdict, 1 on errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import diagnose, generic, spaceable
from .errors import ParseError, SeqchainError
from .intervals import format_rational, parse_rational
from .sequences import Sequence
from .serialize import canonical_json, parse_json, sequence_from_spec
from .spaces import adjacent_pairs, parse_space, standard_chain
from .supports import support_from_spec
from .witness import make_witness, verify_witness

SCHEMA = "seqchain/1"


@dataclass(frozen=True)
class RunConfig:
    budget: int = 4096
    prec: int = 64
    epsilon: Fraction | None = None
    seed: int = 0
    fmt: str = "json"

    def __post_init__(self):
        if self.budget < 1:
            raise SeqchainError("budget must be >= 1")
        if self.prec < 8:
            raise SeqchainError("prec must be >= 8")
        if self.epsilon is not None and self.epsilon <= 0:
            raise SeqchainError("epsilon must be > 0")

    def describe(self):
        out = {"budget": self.budget, "prec": self.prec, "seed": self.seed}
        if self.epsilon is not None:
            out["epsilon"] = format_rational(self.epsilon)
        return out


def _read_source(text: str) -> str:
    """Inline JSON, @path, or '-' for stdin."""
    if text == "-":
        return sys.stdin.read()
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            try:
                return fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{text[1:]} is not UTF-8: {exc.reason}") from None
    return text


def _load_sequence(text: str) -> Sequence:
    return sequence_from_spec(_read_source(text))


def _emit(report: dict, text_lines: list[str], config: RunConfig, out_path):
    if config.fmt == "json":
        payload = canonical_json(report)
    else:
        payload = "\n".join(text_lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _base_report(command: str, config: RunConfig) -> dict:
    return {"schema": SCHEMA, "command": command, "config": config.describe()}


# -- subcommands --------------------------------------------------------------


def cmd_chain(args, config: RunConfig) -> int:
    chain = standard_chain()
    report = _base_report("chain", config)
    report["chain"] = [str(s) for s in chain]
    lines = ["chain: " + " < ".join(str(s) for s in chain)]
    status = 0
    if args.verify:
        results = []
        all_ok = True
        for inner, outer in adjacent_pairs():
            support = support_from_spec({"kind": "all"})
            w = make_witness(inner, outer, support, config.budget, config.prec)
            ok = verify_witness(w, config.budget, samples=3, prec=config.prec)
            all_ok = all_ok and ok
            results.append(
                {
                    "inner": str(inner),
                    "outer": str(outer),
                    "verified": ok,
                    "witness": w.seq.spec(),
                }
            )
            lines.append(f"{'ok ' if ok else 'FAIL'} {inner} < {outer}")
        report["witnesses"] = results
        report["verified"] = all_ok
        lines.append(f"verified: {sum(1 for r in results if r['verified'])}/{len(results)}")
        if not all_ok:
            status = 1
    _emit(report, lines, config, args.out)
    return status


def cmd_classify(args, config: RunConfig) -> int:
    seq = _load_sequence(args.seq)
    space = parse_space(args.space)
    verdict = diagnose.classify(seq, space, config.budget, config.prec)
    report = _base_report("classify", config)
    report["space"] = str(space)
    report["sequence"] = seq.spec()
    report["result"] = diagnose.verdict_to_json(verdict)
    lines = [f"{space}: {report['result']['verdict']}"]
    _emit(report, lines, config, args.out)
    return 2 if isinstance(verdict, diagnose.Undecided) else 0


def _load_support(text: str):
    return support_from_spec(parse_json(_read_source(text)))


def cmd_witness(args, config: RunConfig) -> int:
    inner = parse_space(args.inner)
    outer = parse_space(args.outer)
    support = _load_support(args.support)
    w = make_witness(inner, outer, support, config.budget, config.prec)
    ok = verify_witness(w, config.budget, samples=3, prec=config.prec)
    report = _base_report("witness", config)
    report["witness"] = w.describe()
    report["verified"] = ok
    lines = [f"witness for {inner} < {outer}: {'verified' if ok else 'FAILED'}"]
    _emit(report, lines, config, args.out)
    return 0 if ok else 1


def cmd_approx(args, config: RunConfig) -> int:
    target = _load_sequence(args.target)
    outer = parse_space(args.outer)
    inner = parse_space(args.avoid)
    eps = config.epsilon if config.epsilon is not None else Fraction(1, 1024)
    result = generic.approximate_with_avoider(
        target, eps, outer, inner, config.budget, config.prec
    )
    report = _base_report("approx", config)
    report["outer"] = str(outer)
    report["avoid"] = str(inner)
    report["epsilon"] = format_rational(eps)
    report.update(result.describe())
    lines = [
        f"approximated within {format_rational(result.distance_upper)} "
        f"of the target in {outer}, certified outside {inner}"
    ]
    _emit(report, lines, config, args.out)
    return 0


def cmd_basis(args, config: RunConfig) -> int:
    if args.count < 1:
        raise SeqchainError("count must be >= 1 (a basis has at least one element)")
    inner = parse_space(args.inner)
    outer = parse_space(args.outer)
    basis = spaceable.build_basis(inner, outer, args.count, config.budget, config.prec)
    ok = all(
        verify_witness(w, config.budget, samples=3, prec=config.prec)
        for w in basis.elements.values()
    )
    report = _base_report("basis", config)
    report["basis"] = basis.describe()
    report["verified"] = ok
    lines = [f"basis of {args.count} for {inner} < {outer}: {'verified' if ok else 'FAILED'}"]
    _emit(report, lines, config, args.out)
    return 0 if ok else 1


def cmd_recover(args, config: RunConfig) -> int:
    if args.j < 1:
        raise SeqchainError("j must be >= 1 (basis elements count from 1)")
    inner = parse_space(args.inner)
    outer = parse_space(args.outer)
    f = _load_sequence(args.f)
    basis = spaceable.build_basis(
        inner, outer, max(args.j, args.count), config.budget, config.prec
    )
    iv = spaceable.recover_coefficient(f, basis, args.j, config.prec, config.budget)
    report = _base_report("recover", config)
    report["j"] = args.j
    report["coefficient"] = {
        "re": [format_rational(iv.re_lo), format_rational(iv.re_hi)],
        "im": [format_rational(iv.im_lo), format_rational(iv.im_hi)],
        "exact": iv.is_exact,
    }
    lines = [
        f"c_{args.j} in [{iv.re_lo}, {iv.re_hi}] + i[{iv.im_lo}, {iv.im_hi}]"
        + (" (exact)" if iv.is_exact else "")
    ]
    _emit(report, lines, config, args.out)
    return 0


def _parse_range(text: str, flag: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise ParseError(f"bad {flag} {text!r}: expected LO:HI with integer ends") from None


def cmd_decompose(args, config: RunConfig) -> int:
    seq = _load_sequence(args.seq)
    space = parse_space(args.space)
    rows = diagnose.decompose_report(
        seq,
        space,
        _parse_range(args.outer_range, "--outer-range"),
        _parse_range(args.inner_range, "--inner-range"),
        config.budget,
        config.prec,
    )
    report = _base_report("decompose", config)
    report["space"] = str(space)
    table = []
    lines = []
    for fam, res in rows:
        key = diagnose.format_family(fam)
        if isinstance(res, diagnose.ViolatedAt):
            table.append(
                {
                    "family": key,
                    "result": "violated",
                    "n": res.n,
                    "value": [format_rational(res.lower), format_rational(res.upper)],
                }
            )
            lines.append(f"{key}: violated at {res.n}")
        else:
            table.append({"family": key, "result": "consistent", "upto": res.N})
            lines.append(f"{key}: consistent up to {res.N}")
    report["table"] = table
    _emit(report, lines, config, args.out)
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, top: bool):
    """Global flags, accepted both before and after the subcommand."""
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    p.add_argument("--budget", type=int, default=d(4096))
    p.add_argument("--prec", type=int, default=d(64))
    p.add_argument("--epsilon", type=str, default=d(None))
    p.add_argument("--seed", type=int, default=d(0))
    p.add_argument("--format", choices=("json", "text"), default=d("json"))
    p.add_argument("--out", type=str, default=d(None))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqchain",
        description="certificate-carrying diagnostics for the sequence-space chain",
    )
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chain", help="print the chain; optionally verify witnesses")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_chain)
    _add_common(p, top=False)

    p = sub.add_parser("classify", help="membership verdict with certificate")
    p.add_argument("seq", help="sequence spec (JSON, @file, or -)")
    p.add_argument("space")
    p.set_defaults(func=cmd_classify)
    _add_common(p, top=False)

    p = sub.add_parser("witness", help="separating sequence for a strict pair")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--support", default='{"kind":"all"}')
    p.set_defaults(func=cmd_witness)
    _add_common(p, top=False)

    p = sub.add_parser("approx", help="approximate while certifiably avoiding a space")
    p.add_argument("--target", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--avoid", required=True)
    p.set_defaults(func=cmd_approx)
    _add_common(p, top=False)

    p = sub.add_parser("basis", help="disjointly supported witness basis")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--count", type=int, default=3)
    p.set_defaults(func=cmd_basis)
    _add_common(p, top=False)

    p = sub.add_parser("recover", help="recover a combination coefficient")
    p.add_argument("--f", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_recover)
    _add_common(p, top=False)

    p = sub.add_parser("decompose", help="closed-family grid report")
    p.add_argument("seq")
    p.add_argument("space")
    p.add_argument("--outer-range", default="1:3")
    p.add_argument("--inner-range", default="1:10")
    p.set_defaults(func=cmd_decompose)
    _add_common(p, top=False)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            budget=args.budget,
            prec=args.prec,
            epsilon=None if args.epsilon is None else parse_rational(args.epsilon),
            seed=args.seed,
            fmt=args.format,
        )
        return args.func(args, config)
    except (SeqchainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
