"""Command-line surface.

Subcommands: ``chain``, ``classify``, ``witness``, ``approx``, ``basis``,
``recover``, ``decompose``, one entry each in ``COMMANDS``.  Each ``cmd_*``
returns its report fields, its text lines and its exit status; ``main``
alone adds ``schema``, ``command`` and ``config``, renders json or text and
writes ``--out`` or stdout.  Reports are deterministic: identical inputs
and config produce byte-identical output.  Exit codes: 0 success, 2 when
the only outcome is an undecided verdict, 1 on errors, malformed arguments
included, each reported as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import diagnose, generic, spaceable
from .errors import ParseError, SeqchainError
from .intervals import Frozen, format_rational, parse_rational
from .sequences import Sequence
from .serialize import canonical_json, parse_json, sequence_from_spec
from .spaces import adjacent_pairs, parse_space, standard_chain
from .supports import support_from_spec
from .witness import make_witness, verify_witness

SCHEMA = "seqchain/1"


class RunConfig(Frozen):
    __slots__ = _fields = ("budget", "prec", "epsilon", "seed", "fmt")

    def __init__(self, budget: int = 4096, prec: int = 64, epsilon: Fraction | None = None,
                 seed: int = 0, fmt: str = "json"):
        if budget < 1:
            raise SeqchainError("budget must be >= 1")
        if prec < 8:
            raise SeqchainError("prec must be >= 8")
        if epsilon is not None and epsilon <= 0:
            raise SeqchainError("epsilon must be > 0")
        super().__init__(budget, prec, epsilon, seed, fmt)

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


def _load_support(text: str):
    return support_from_spec(parse_json(_read_source(text)))


def _verified(w, config: RunConfig) -> bool:
    return verify_witness(w, config.budget, samples=3, prec=config.prec)


# -- subcommands: each returns (report fields, text lines, exit status) ---------


def cmd_chain(args, config: RunConfig):
    fields = {"chain": [str(s) for s in standard_chain()]}
    lines = ["chain: " + " < ".join(fields["chain"])]
    if not args.verify:
        return fields, lines, 0
    results = []
    for inner, outer in adjacent_pairs():
        support = support_from_spec({"kind": "all"})
        w = make_witness(inner, outer, support, config.budget, config.prec)
        ok = _verified(w, config)
        results.append(
            {"inner": str(inner), "outer": str(outer), "verified": ok, "witness": w.seq.spec()}
        )
        lines.append(f"{'ok ' if ok else 'FAIL'} {inner} < {outer}")
    verified = sum(r["verified"] for r in results)
    lines.append(f"verified: {verified}/{len(results)}")
    all_ok = verified == len(results)
    return {**fields, "witnesses": results, "verified": all_ok}, lines, 0 if all_ok else 1


def cmd_classify(args, config: RunConfig):
    seq, space = _load_sequence(args.seq), parse_space(args.space)
    verdict = diagnose.classify(seq, space, config.budget, config.prec)
    result = diagnose.verdict_to_json(verdict)
    fields = {"space": str(space), "sequence": seq.spec(), "result": result}
    status = 2 if isinstance(verdict, diagnose.Undecided) else 0
    return fields, [f"{space}: {result['verdict']}"], status


def cmd_witness(args, config: RunConfig):
    inner, outer = parse_space(args.inner), parse_space(args.outer)
    w = make_witness(inner, outer, _load_support(args.support), config.budget, config.prec)
    ok = _verified(w, config)
    line = f"witness for {inner} < {outer}: {'verified' if ok else 'FAILED'}"
    return {"witness": w.describe(), "verified": ok}, [line], 0 if ok else 1


def cmd_approx(args, config: RunConfig):
    target = _load_sequence(args.target)
    outer, inner = parse_space(args.outer), parse_space(args.avoid)
    eps = config.epsilon if config.epsilon is not None else Fraction(1, 1024)
    result = generic.approximate_with_avoider(target, eps, outer, inner, config.budget, config.prec)
    fields = {"outer": str(outer), "avoid": str(inner), "epsilon": format_rational(eps)}
    line = (f"approximated within {format_rational(result.distance_upper)} "
            f"of the target in {outer}, certified outside {inner}")
    return {**fields, **result.describe()}, [line], 0


def cmd_basis(args, config: RunConfig):
    if args.count < 1:
        raise SeqchainError("count must be >= 1 (a basis has at least one element)")
    inner, outer = parse_space(args.inner), parse_space(args.outer)
    basis = spaceable.build_basis(inner, outer, args.count, config.budget, config.prec)
    ok = all(_verified(w, config) for w in basis.elements.values())
    line = f"basis of {args.count} for {inner} < {outer}: {'verified' if ok else 'FAILED'}"
    return {"basis": basis.describe(), "verified": ok}, [line], 0 if ok else 1


def cmd_recover(args, config: RunConfig):
    """Coefficient j of f: recovery reads basis element j alone, so no other
    element is built."""
    if args.j < 1:
        raise SeqchainError("j must be >= 1 (basis elements count from 1)")
    inner, outer, f = parse_space(args.inner), parse_space(args.outer), _load_sequence(args.f)
    w = spaceable.basis_element(inner, outer, args.j, config.budget, config.prec)
    basis = spaceable.SpaceableBasis(inner, outer, {args.j: w})
    iv = spaceable.recover_coefficient(f, basis, args.j, config.prec, config.budget)
    coefficient = {
        "re": [format_rational(iv.re_lo), format_rational(iv.re_hi)],
        "im": [format_rational(iv.im_lo), format_rational(iv.im_hi)],
        "exact": iv.is_exact,
    }
    line = (f"c_{args.j} in [{iv.re_lo}, {iv.re_hi}] + i[{iv.im_lo}, {iv.im_hi}]"
            + (" (exact)" if iv.is_exact else ""))
    return {"j": args.j, "coefficient": coefficient}, [line], 0


def _parse_range(text: str, flag: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        ends = range(int(lo), int(hi) + 1)
    except ValueError:
        ends = range(0)
    if not ends:  # malformed, or HI < LO
        raise ParseError(f"bad {flag} {text!r}: expected LO:HI with integer ends, LO <= HI")
    return ends


def cmd_decompose(args, config: RunConfig):
    seq, space = _load_sequence(args.seq), parse_space(args.space)
    outer_range = _parse_range(args.outer_range, "--outer-range")
    inner_range = _parse_range(args.inner_range, "--inner-range")
    rows = diagnose.decompose_report(
        seq, space, outer_range, inner_range, config.budget, config.prec
    )
    table, lines = [], []
    for fam, res in rows:
        key = str(fam)
        if isinstance(res, diagnose.ViolatedAt):
            value = [format_rational(res.lower), format_rational(res.upper)]
            table.append({"family": key, "result": "violated", "n": res.n, "value": value})
            lines.append(f"{key}: violated at {res.n}")
        else:
            table.append({"family": key, "result": "consistent", "upto": res.N})
            lines.append(f"{key}: consistent up to {res.N}")
    return {"space": str(space), "table": table}, lines, 0


# -- argument parsing ----------------------------------------------------------

_REQUIRED = {"required": True}

# name: (help, own arguments as (flag, add_argument keywords), function)
COMMANDS = {
    "chain": ("print the chain; optionally verify witnesses",
              [("--verify", {"action": "store_true"})], cmd_chain),
    "classify": ("membership verdict with certificate",
                 [("seq", {"help": "sequence spec (JSON, @file, or -)"}), ("space", {})],
                 cmd_classify),
    "witness": ("separating sequence for a strict pair",
                [("--inner", _REQUIRED), ("--outer", _REQUIRED),
                 ("--support", {"default": '{"kind":"all"}'})], cmd_witness),
    "approx": ("approximate while certifiably avoiding a space",
               [("--target", _REQUIRED), ("--outer", _REQUIRED), ("--avoid", _REQUIRED)],
               cmd_approx),
    "basis": ("disjointly supported witness basis",
              [("--inner", _REQUIRED), ("--outer", _REQUIRED),
               ("--count", {"type": int, "default": 3})], cmd_basis),
    "recover": ("recover a combination coefficient",
                [("--f", _REQUIRED), ("--inner", _REQUIRED), ("--outer", _REQUIRED),
                 ("--j", {"type": int, "required": True})], cmd_recover),
    "decompose": ("closed-family grid report",
                  [("seq", {}), ("space", {}), ("--outer-range", {"default": "1:3"}),
                   ("--inner-range", {"default": "1:10"})], cmd_decompose),
}


class _Parser(argparse.ArgumentParser):
    """Raises an argument error as a ``ParseError`` for ``main`` to report;
    the subcommand parsers are made of this class too."""

    def error(self, message):
        raise ParseError(message)


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
    parser = _Parser(
        prog="seqchain",
        description="certificate-carrying diagnostics for the sequence-space chain",
    )
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, own, func) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in own:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
        _add_common(p, top=False)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = RunConfig(
            budget=args.budget,
            prec=args.prec,
            epsilon=None if args.epsilon is None else parse_rational(args.epsilon),
            seed=args.seed,
            fmt=args.format,
        )
        fields, lines, status = args.func(args, config)
        if config.fmt == "json":
            report = {"schema": SCHEMA, "command": args.command, "config": config.describe()}
            payload = canonical_json({**report, **fields})
        else:
            payload = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return status
    except (SeqchainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
