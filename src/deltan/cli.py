"""Command-line front end: inspect ideal lattices, classify ideals, run the verifier.

Exit codes: 0 success, 1 at least one claim failure, 2 usage/parse/semantic error,
3 internal error (an unexpected exception, reported on one line without a traceback),
141 the reader closed standard output (128 + SIGPIPE, as the shell reports for
``yes | head -1``; nothing is written to stderr).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext

from .claims import _claim_of
from .errors import DeltanError
from .dsl import (bind_expansion, bind_ideal, bind_ring, parse_expansion_text,
                  parse_ideal_text, parse_spec)
from .ideals import classify_ideal, enumerate_ideals
from .expansions import apply_expansion
from .predicates import (DELTA_N_METHODS, delta_n_witness, delta_primary_witness,
                         is_delta_n_ideal, n_ideal_witness, quasi_n_witness)
from .verifier import builtin_corpus, load_corpus, render_json, render_text, run_claims


def _bool_row(label, value, witness=None):
    text = f"{label}: {'true' if value else 'false'}"
    if witness is not None and not value:
        a, b = witness
        text += f"  (witness: a={a!r}, b={b!r})"
    print(text)


def _witness_row(label, witness):
    """The row of a flag that holds exactly when its witness is None."""
    _bool_row(label, witness is None, witness)


def _cmd_ideals(args):
    ring = bind_ring(parse_spec(args.ring))
    lattice = enumerate_ideals(ring)
    print(f"ideal lattice of {ring.key} ({len(lattice)} ideals):")
    for I in lattice:
        print(f"  size {I.size:>4}   generators {I!r}")
    return 0


def _cmd_classify(args):
    ring = bind_ring(parse_spec(args.ring))
    ideal = bind_ideal(ring, parse_ideal_text(args.ideal))
    # before the first row, so a bad expansion leaves no half report
    delta = bind_expansion(ring, parse_expansion_text(args.delta)) if args.delta else None
    print(f"ring: {ring.key}" +
          (f" ({ring.size} elements)" if ring.is_finite else " (infinite)"))
    print(f"ideal: {ideal!r}" +
          (f" ({ideal.size} elements)" if ring.is_finite else ""))
    flags = classify_ideal(ideal)
    _bool_row("proper", flags.is_proper)
    _bool_row("prime", flags.is_prime)
    _bool_row("maximal", flags.is_maximal)
    _bool_row("primary", flags.is_primary)
    _bool_row("superfluous", flags.is_superfluous)
    # after the flag rows, which hold for R too, n_ideal_witness refuses R (predicates._guard)
    _witness_row("n-ideal", n_ideal_witness(ideal))
    _witness_row("quasi n-ideal", quasi_n_witness(ideal))
    if delta is not None:
        print(f"expansion: {delta.name()}")
        print(f"delta(I): {apply_expansion(delta, ideal)!r}")
        _witness_row("delta-primary", delta_primary_witness(ideal, delta))
        wit = delta_n_witness(ideal, delta)
        for method in DELTA_N_METHODS:
            value = is_delta_n_ideal(ideal, delta, method=method)
            _bool_row(f"delta-n-ideal ({method})", value,
                      wit if method == "definition" else None)
    return 0


def _unwritable(path, exc):
    return DeltanError(f"cannot write report file {path}: {exc.strerror}")


def _cmd_verify(args):
    corpus = builtin_corpus() if args.corpus == "default" else load_corpus(args.corpus)
    claim_ids = args.claims.split(",") if args.claims else None
    for cid in claim_ids or ():  # before the report file is opened
        _claim_of(cid)
    try:  # before the run, so an unwritable report path fails fast
        json_out = open(args.json, "w", encoding="utf-8") if args.json else nullcontext()
    except OSError as exc:
        raise _unwritable(args.json, exc) from None
    with json_out:
        reports = run_claims(corpus=corpus, claim_ids=claim_ids,
                             witness_cap=args.witness_cap)
        sys.stdout.write(render_text(reports))
        if args.json:
            try:  # a full disk fails the write or the flush at close; a second close is a no-op
                json_out.write(render_json(reports))
                json_out.close()
            except OSError as exc:
                raise _unwritable(args.json, exc) from None
    return 1 if any(rep.failed for rep in reports) else 0


def _cmd_explain(args):
    claim = _claim_of(args.claim_id)
    print(f"claim: {claim.id}")
    print(f"title: {claim.title}")
    print(f"statement: {claim.statement}")
    print(f"quantifies over: {claim.quantifies}")
    if claim.self_test:
        print("kind: deliberately inverted self-test of the witness machinery")
    for note in claim.notes:
        print(f"note: {note}")
    return 0


def count(text):
    """An integer option of at least 0; argparse names it in its errors."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deltan",
        description="Finite commutative rings, ideal expansions, and the "
                    "delta-n-ideal verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideals", help="list the ideal lattice of a ring")
    p.add_argument("ring", help="ring expression, e.g. 'Z12' or 'Z4[x]/(x^3)'")

    p = sub.add_parser("classify", help="classify an ideal of a ring")
    p.add_argument("ring")
    p.add_argument("ideal", help="generator list, e.g. '(0)' or '(2,x)'")
    p.add_argument("--delta", help="expansion, e.g. d1 or 'd+((3))'")

    p = sub.add_parser("verify", help="run the claim verifier")
    p.add_argument("--claims", help="comma-separated claim ids (default: all "
                                    "registry claims except self-tests)")
    p.add_argument("--corpus", default="default",
                   help="'default' or a path to a file of ring expressions")
    p.add_argument("--json", help="write the machine-readable report here")
    p.add_argument("--witness-cap", type=count, default=5,
                   help="max failure witnesses kept per claim (default 5)")

    p = sub.add_parser("explain", help="describe a registry claim")
    p.add_argument("claim_id")
    return parser


@functools.cache
def _parser():
    """The parser, built on the first ``main`` call and kept for the process."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # looked up per call, so a handler patched into the module takes effect
    handler = {"ideals": _cmd_ideals, "classify": _cmd_classify,
               "verify": _cmd_verify, "explain": _cmd_explain}[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except DeltanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
