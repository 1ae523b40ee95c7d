"""Command-line front end: build representation JSON, run verification
suites, decide word equality, and run the splittable engine.

Exit codes: 0 success, 1 verification failure (report on stdout), 2 bad
arguments or input validation.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .errors import VerificationError
from .reps import (
    artin_even,
    artin_odd,
    artin_sigma_basis,
    golden_check,
    hnn_induced_rep,
    integer_hnn,
    probe_faithfulness,
    sigma_int,
    sigma_qp,
    sigma_symbolic,
    verify_defining_relations,
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
    artin_canonical,
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


def _mode_inputs(m: int, args, integer=False):
    """(spec, sigma, s) for index m in the requested mode: the Artin HNN
    spec, the free-group images and the corner unit.  The integer mode is
    taken only when integer is set; numeric (Q_p) mode needs all of
    --lambda, --mu and a prime --s; symbolic mode is the default."""
    spec = artin_spec(m)
    basis = artin_sigma_basis(m)
    numeric = _numeric_mode(args)
    if integer:
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
    spec, sigma, s = _mode_inputs(m, args, integer=args.integer)
    if args.integer:
        return integer_hnn(spec, sigma, s)
    n, odd = divmod(m, 2)
    return (artin_odd if odd else artin_even)(n, sigma, s)


def _hnn_rep(m: int, args):
    """Induced representation on the x_i / t alphabet for index m."""
    return hnn_induced_rep(*_mode_inputs(m, args))


_ESCAPE = json.encoder.encode_basestring_ascii
_MISSING = object()


def _json_text(obj, indent=""):
    """The text of json.dumps(obj, indent=2, sort_keys=True) at nesting
    prefix indent, for dicts with str keys, lists, str, int, bool and None;
    TypeError for anything else (a float, a tuple, a non-str key).

    Inside a list, an item that is the same object as the one before it
    reuses its text, which depends only on the object and the indent, so a
    run of shared zero entries in a matrix row is encoded once.  Identity,
    not equality, decides: 1 == True, but their texts differ."""
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, list):
        if not obj:
            return "[]"
        brackets = "[]"
        parts = []
        prev = text = _MISSING
        for item in obj:
            if item is not prev:
                prev, text = item, _json_text(item, inner)
            parts.append(text)
    elif isinstance(obj, dict):
        if not obj:
            return "{}"
        brackets = "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        parts = [
            _ESCAPE(key) + ": " + _json_text(value, inner)
            for key, value in sorted(obj.items())
        ]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts)
            + f"\n{indent}{brackets[1]}")


def _report_stream(path):
    """stderr when the JSON document goes to stdout (path "-"), else stdout."""
    return sys.stderr if path == "-" else sys.stdout


def _dump_json(doc, path):
    text = _json_text(doc)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def cmd_build(args) -> int:
    if args.group != "artin":
        raise CliError(f"unknown group {args.group!r}")
    rep = _build_artin(args.m, args)
    _dump_json(rep.to_json(), args.out)
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
        # The build verified its relations; print the reports it kept.
        rep = _build_artin(args.m, args)
        reports = rep.relation_reports
        if args.integer:  # the x_i / t alphabet: w_m at the words x, y
            reports += (verify_defining_relations(rep, [artin_canonical(args.m)[2]]),)
        rel_report, can_report = reports
        for r in rel_report.results:
            lines.append(f"defining relation {r.lhs} = {r.rhs}: "
                         f"{'ok' if r.ok else 'FAIL ' + str(r.mismatch)}")
        r = can_report.results[0]
        lines.append(f"canonical relation w_{args.m}(x,y) = w_{args.m}(y,x): "
                     f"{'ok' if r.ok else 'FAIL ' + str(r.mismatch)}")
        ok = rel_report.ok and can_report.ok
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
        return _report_lines(lines, not mismatches, args.json_report, args.suite)

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
        lines.append(f"counterexamples: {len(report.counterexamples)}")
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
    with open(path) as fh:
        doc = json.load(fh)
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
    if report.witness is not None:
        print(f"first failure: {report.witness}", file=out)
    _dump_json(rep.to_json(), args.out)
    print("PASS" if report.ok else "FAIL", file=out)
    return 0 if report.ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared:
    a process that runs main() many times builds it once."""
    parser = argparse.ArgumentParser(
        prog="hnnrep",
        description="Exact linear representations of HNN extensions and "
                    "two-generator Artin groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode_flags(p):
        p.add_argument("--symbolic", action="store_true",
                       help="symbolic ring (default)")
        p.add_argument("--lambda", dest="lam", type=int, default=None)
        p.add_argument("--mu", type=int, default=None)
        p.add_argument("--s", type=int, default=None,
                       help="prime (numeric mode) or integer (--integer mode)")
        p.add_argument("--integer", action="store_true",
                       help="integer variant with a unipotent corner block")

    p_build = sub.add_parser("build", help="emit a representation as JSON")
    p_build.add_argument("--group", default="artin")
    p_build.add_argument("--m", type=int, required=True, help="Artin index")
    add_mode_flags(p_build)
    p_build.add_argument("--out", required=True, help="output path or -")
    p_build.set_defaults(func=cmd_build)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("--suite", required=True,
                         choices=["relations", "golden", "center", "faithfulness"])
    p_check.add_argument("--m", type=int, required=True)
    add_mode_flags(p_check)
    p_check.add_argument("--max-len", type=int, default=5)
    p_check.add_argument("--json-report", default=None)
    p_check.set_defaults(func=cmd_check)

    p_word = sub.add_parser("word", help="normal form / equality of words")
    p_word.add_argument("--op", required=True, choices=["normal-form", "equal"])
    p_word.add_argument("--m", type=int, required=True)
    p_word.add_argument("--word", required=True)
    p_word.add_argument("--word2", default=None)
    p_word.set_defaults(func=cmd_word)

    p_split = sub.add_parser("splittable", help="run the splittable engine")
    p_split.add_argument("--g", required=True, help="G generators JSON")
    p_split.add_argument("--phi", default=None, help="Phi generators JSON")
    p_split.add_argument("--tau", default="trivial", choices=["trivial", "inner"])
    p_split.add_argument("--sample-len", type=int, default=4)
    p_split.add_argument("--max-len", type=int, default=3)
    p_split.add_argument("--out", required=True)
    p_split.set_defaults(func=cmd_splittable)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
