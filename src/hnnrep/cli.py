"""Command-line front end: build representation JSON, run verification
suites, decide word equality, and run the splittable engine.

Exit codes: 0 success, 1 verification failure (report on stdout), 2 bad
arguments or input validation.

Every JSON document is written by one writer (_dump_json) as the text of
json.dumps(doc, indent=2, sort_keys=True) plus a newline, streamed to the
file or stdout in the fragments matrix._write_json makes, so the whole text
is never joined or encoded as one string.  build writes the
representation's block document (Representation.block_document), rendered
from its blocks with no dense document in between; its fragment list stays
small because each block row and zero run is one string shared by every
row that shows it.  Other documents share no fragments, so their list
holds all of their text in pieces.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .errors import VerificationError
from .matrix import _write_json
from .reps import (
    artin_even,
    artin_odd,
    artin_sigma_basis,
    b3_explicit,
    golden_check,
    hnn_induced_rep,
    integer_artin,
    matrix_relation_reports,
    probe_faithfulness,
    sigma_int,
    sigma_qp,
    sigma_symbolic,
)
from .ring import LAURENT, QpRing, is_prime
from .splittable import (
    InnerTau,
    MatrixGroupGens,
    TrivialTau,
    build_rep,
    int_g_rep,
    verify_rep,
)
from .words import (
    artin_spec,
    center_generator,
    equal,
    normal_form,
    parse_word,
)


class CliError(Exception):
    """Input validation failure; exits with status 2."""


def _numeric_mode(args):
    provided = [v is not None for v in (args.lam, args.mu, args.s)]
    if any(provided) and not all(provided) and not args.integer:
        raise CliError("numeric mode needs all of --lambda, --mu, --s")
    if args.symbolic and (any(provided) or args.integer):
        raise CliError("--symbolic conflicts with numeric or integer flags")
    return all(provided) and not args.integer


def _mode_inputs(m: int, args):
    """(spec, sigma, s) for index m in the requested mode: the Artin HNN
    spec, the free-group images and the corner unit.  Integer mode is
    --integer; numeric (Q_p) mode needs all of --lambda, --mu and a prime
    --s; symbolic mode is the default."""
    spec = artin_spec(m)
    basis = artin_sigma_basis(m)
    numeric = _numeric_mode(args)
    if args.integer:
        lam = 2 if args.lam is None else args.lam
        mu = 2 if args.mu is None else args.mu
        s = 1 if args.s is None else args.s
        if s == 0:
            raise CliError("--s must be nonzero in integer mode")
        return spec, sigma_int(spec.rank, lam, mu, basis=basis), s
    if numeric:
        if not is_prime(args.s):
            raise CliError("--s must be prime (it becomes the Q_p denominator)")
        sigma = sigma_qp(spec.rank, args.lam, args.mu, args.s, basis=basis)
        return spec, sigma, QpRing(args.s).from_int(args.s)
    return spec, sigma_symbolic(spec.rank, basis=basis), LAURENT.s_power(1)


def _build_artin(m: int, args):
    """Canonical Artin representation for index m in the requested mode."""
    _, sigma, s = _mode_inputs(m, args)
    if args.integer:
        return integer_artin(m, sigma, s)
    n, odd = divmod(m, 2)
    return (artin_odd if odd else artin_even)(n, sigma, s)


def _hnn_rep(m: int, args):
    """Induced representation on the x_i / t alphabet for index m."""
    return hnn_induced_rep(*_mode_inputs(m, args))


def _report_stream(path):
    """stderr when the JSON document goes to stdout (path "-"), else stdout."""
    return sys.stderr if path == "-" else sys.stdout


def _dump_json(doc, path):
    """Write the text of json.dumps(doc, indent=2, sort_keys=True) and a
    newline to path, or to stdout when path is "-", as the fragments of
    matrix._write_json, never joined or encoded as one string.  Every fragment is made before the file is opened, so a
    document the writer refuses (TypeError) leaves path as it was."""
    fragments = []
    _write_json(doc, "", fragments, {})
    fragments.append("\n")
    if path == "-":
        sys.stdout.writelines(fragments)
    else:
        with open(path, "w") as fh:
            fh.writelines(fragments)


def cmd_build(args) -> int:
    if args.group != "artin":
        raise CliError(f"unknown group {args.group!r}")
    rep = _build_artin(args.m, args)
    _dump_json(rep.block_document(), args.out)
    print(f"wrote {rep.group or 'representation'} of degree {rep.degree} to {args.out}",
          file=_report_stream(args.out))
    return 0


def _report_lines(lines, ok, json_path, suite):
    out = _report_stream(json_path)
    for line in lines:
        print(line, file=out)
    print("PASS" if ok else "FAIL", file=out)
    if json_path:
        _dump_json({"suite": suite, "pass": ok, "details": lines}, json_path)
    return 0 if ok else 1


def cmd_check(args) -> int:
    lines = []
    if args.suite == "relations":
        # Evaluate on the built matrices every relation the build verified
        # (the build may have certified them on the word skeleton); when a
        # relation failed in the build, print the reports it carries, up
        # to the failed one.
        try:
            reports = matrix_relation_reports(_build_artin(args.m, args))
        except VerificationError as exc:
            if not exc.reports:
                raise
            reports = exc.reports
        defining, *canonical = reports
        for r in defining.results:
            lines.append(f"defining relation {r.lhs} = {r.rhs}: "
                         f"{'ok' if r.ok else 'FAIL ' + str(r.mismatch)}")
        for r in (c.results[0] for c in canonical):
            lines.append(f"canonical relation w_{args.m}(x,y) = w_{args.m}(y,x): "
                         f"{'ok' if r.ok else 'FAIL ' + str(r.mismatch)}")
        ok = all(report.ok for report in reports)
        return _report_lines(lines, ok, args.json_report, args.suite)

    if args.suite == "golden":
        if args.m != 3:
            raise CliError("the golden suite is specific to --m 3")
        if args.integer or any(v is not None for v in (args.lam, args.mu, args.s)):
            raise CliError("the golden suite compares the symbolic braid-case "
                           "blocks against their closed forms; drop --integer, "
                           "--lambda, --mu and --s")
        _, mismatches = golden_check()
        for key in ("sigma_inv", "psi1_x0", "psi2_x0", "psi3_x0", "psi4_x0"):
            status = "FAIL" if key in mismatches else "ok"
            lines.append(f"golden block {key}: {status}")
        try:
            b3_explicit(mismatches=mismatches)
            status = "ok"
        except VerificationError as exc:
            status = f"FAIL {exc}"
        lines.append(f"explicit B3 pair X, Y (12x12), block shapes and "
                     f"X Y X = Y X Y: {status}")
        ok = not mismatches and status == "ok"
        return _report_lines(lines, ok, args.json_report, args.suite)

    if args.suite == "center":
        if args.integer:
            raise CliError("the center suite compares against s * identity, "
                           "which the integer variant's unipotent corner "
                           "does not give; drop --integer")
        z = center_generator(artin_spec(args.m))
        lines.append(f"center generator (word level): {z}")
        hnn = _hnn_rep(args.m, args)
        (z_img,) = hnn.block_eval_many([z])
        ok = z_img.is_scalar(hnn.params["s"])
        lines.append(f"matrix image of t^n w0 equals s * identity: "
                     f"{'ok' if ok else 'FAIL'}")
        for name in hnn.gen_names:
            image = hnn.images[name][0]
            commutes = z_img * image == image * z_img
            lines.append(f"commutes with {name}: {'ok' if commutes else 'FAIL'}")
            ok = ok and commutes
        return _report_lines(lines, ok, args.json_report, args.suite)

    if args.suite == "faithfulness":
        if args.integer:
            raise CliError("the faithfulness suite probes the Q_p "
                           "representation and has no integer mode; drop --integer")
        if not _numeric_mode(args):
            raise CliError("the faithfulness suite needs --lambda --mu --s")
        hnn = _hnn_rep(args.m, args)
        report = probe_faithfulness(hnn, args.max_len)
        lines.append(f"words checked (reduced, length <= {args.max_len}): "
                     f"{report.words_checked}")
        lines.append(f"identity evaluations: {report.identity_count}")
        lines.append(f"counterexamples: {report.counterexample_count}")
        for w in report.counterexamples[:10]:
            lines.append(f"  counterexample: {w}")
        return _report_lines(lines, report.ok, args.json_report, args.suite)

    raise CliError(f"unknown suite {args.suite!r}")


def cmd_word(args) -> int:
    spec = artin_spec(args.m)
    w = parse_word(args.word)
    if w.min_rank > spec.rank:
        raise CliError(f"word uses generators outside rank {spec.rank}")
    if args.op == "normal-form":
        print(normal_form(spec, w))
        return 0
    if args.op == "equal":
        if args.word2 is None:
            raise CliError("--op equal needs --word2")
        w2 = parse_word(args.word2)
        if w2.min_rank > spec.rank:
            raise CliError(f"word uses generators outside rank {spec.rank}")
        print("true" if equal(spec, w, w2) else "false")
        return 0
    raise CliError(f"unknown word op {args.op!r}")


def _load_gens(path) -> MatrixGroupGens:
    """Read a --g / --phi document; a number with a fraction or an exponent
    keeps its text, which MatrixGroupGens.from_json reads as its exact
    decimal value, not rounded to a float."""
    with open(path) as fh:
        doc = json.load(fh, parse_float=str)
    return MatrixGroupGens.from_json(doc)


def cmd_splittable(args) -> int:
    if args.max_len < 1:
        raise CliError("--max-len must be at least 1")
    g_gens = _load_gens(args.g)
    if args.phi is not None:
        if args.tau != "inner":
            raise CliError("an explicit --phi needs --tau inner")
        phi_gens = _load_gens(args.phi)
        if len(phi_gens.pairs) != len(g_gens.pairs):
            raise CliError("--phi and --g must pair generators one to one")
        rep = build_rep(phi_gens, g_gens, InnerTau(g_gens), args.sample_len)
    elif args.tau == "inner":
        rep = int_g_rep(g_gens, args.sample_len)
    else:
        rep = build_rep(
            MatrixGroupGens.trivial(), g_gens,
            TrivialTau(g_gens.degree), args.sample_len,
        )
    out = _report_stream(args.out)
    print(f"dimension {rep.dimension} (bound {rep.m_degree ** 2 + rep.n_degree ** 4})",
          file=out)
    report = verify_rep(rep, args.max_len)
    print(f"words checked: {report.words_checked}, "
          f"identity actions: {report.identity_actions}", file=out)
    print(f"injectivity failures: {report.injectivity_failures}, "
          f"recovery failures: {report.recovery_failures}, "
          f"homomorphism failures: {report.homomorphism_failures}", file=out)
    if report.well_definedness_failures:
        print(f"well-definedness failures: {report.well_definedness_failures}", file=out)
    if report.witness is not None:
        print(f"first failure: {report.witness}", file=out)
    _dump_json(rep.to_json(), args.out)
    if args.phi is not None:
        # Int(G).G and trivial tau are well defined by construction: there
        # phi(l) is the conjugation matrix of tau(l).  An explicit Phi is not.
        print("well-definedness: checked on the walked words only", file=out)
    print("PASS" if report.ok else "FAIL", file=out)
    return 0 if report.ok else 1


# The subcommands, in the order the help lists them.
_COMMANDS = ("build", "check", "word", "splittable")


@cache
def build_parser(command=None) -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared:
    a process that runs main() many times builds it once.  With a command
    name it has that subcommand only, all main needs when argv[0] names
    one, and the full subcommand list as its metavar, so its help, usage
    and error texts read as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="hnnrep",
        description="Exact linear representations of HNN extensions and "
                    "two-generator Artin groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True, **(
        {} if command is None else {"metavar": "{" + ",".join(_COMMANDS) + "}"}))

    def add_mode_flags(p):
        p.add_argument("--symbolic", action="store_true",
                       help="symbolic ring (default)")
        p.add_argument("--lambda", dest="lam", type=int, default=None)
        p.add_argument("--mu", type=int, default=None)
        p.add_argument("--s", type=int, default=None,
                       help="prime (numeric mode) or integer (--integer mode)")
        p.add_argument("--integer", action="store_true",
                       help="integer variant with a unipotent corner block")

    if command in (None, "build"):
        p_build = sub.add_parser("build", help="emit a representation as JSON")
        p_build.add_argument("--group", default="artin")
        p_build.add_argument("--m", type=int, required=True, help="Artin index")
        add_mode_flags(p_build)
        p_build.add_argument("--out", required=True, help="output path or -")
        p_build.set_defaults(func=cmd_build)

    if command in (None, "check"):
        p_check = sub.add_parser("check", help="run a verification suite")
        p_check.add_argument("--suite", required=True,
                             choices=["relations", "golden", "center", "faithfulness"])
        p_check.add_argument("--m", type=int, required=True)
        add_mode_flags(p_check)
        p_check.add_argument("--max-len", type=int, default=5)
        p_check.add_argument("--json-report", default=None)
        p_check.set_defaults(func=cmd_check)

    if command in (None, "word"):
        p_word = sub.add_parser("word", help="normal form / equality of words")
        p_word.add_argument("--op", required=True, choices=["normal-form", "equal"])
        p_word.add_argument("--m", type=int, required=True)
        p_word.add_argument("--word", required=True)
        p_word.add_argument("--word2", default=None)
        p_word.set_defaults(func=cmd_word)

    if command in (None, "splittable"):
        p_split = sub.add_parser("splittable", help="run the splittable engine")
        p_split.add_argument("--g", required=True, help="G generators JSON")
        p_split.add_argument("--phi", default=None, help="Phi generators JSON")
        p_split.add_argument("--tau", default="trivial", choices=["trivial", "inner"])
        p_split.add_argument("--sample-len", type=int, default=4,
                             help="fresh-sample gate at word lengths N + 1 and N + 2")
        p_split.add_argument("--max-len", type=int, default=3)
        p_split.add_argument("--out", required=True)
        p_split.set_defaults(func=cmd_splittable)

    return parser


def main(argv=None) -> int:
    # Integers of any size are read and written: CPython 3.10.7 and later
    # limit int <-> decimal string conversion, so the limit is lifted for
    # this call and the caller's restored, since main also runs in-process.
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        # Only the named subcommand's parser is built; help, no command
        # and an unknown command take the full parser.
        argv = sys.argv[1:] if argv is None else list(argv)
        named = argv[0] if argv and argv[0] in _COMMANDS else None
        parser = build_parser(named) if named else build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}")
        return 1
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
