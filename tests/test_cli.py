"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hnnrep
from hnnrep import cli, reps, splittable
from hnnrep.cli import main
from hnnrep.matrix import RingMatrix
from hnnrep.reps import Representation
from hnnrep.words import MixedWord, Skeleton, Word, artin_spec, center_generator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestWordCommand:
    def test_normal_form_output(self, capsys):
        code, out = run(capsys, "word", "--op", "normal-form", "--m", "4",
                        "--word", "t^-1 x0 t")
        assert code == 0
        assert out.strip() == "t^0 · x0 x1 x0^-1"

    def test_equal_true(self, capsys):
        code, out = run(capsys, "word", "--op", "equal", "--m", "4",
                        "--word", "x0 t x0 t", "--word2", "t t x0 x1")
        assert code == 0
        assert out.strip() == "true"

    def test_equal_false(self, capsys):
        code, out = run(capsys, "word", "--op", "equal", "--m", "4",
                        "--word", "t x0", "--word2", "x0 t")
        assert code == 0
        assert out.strip() == "false"

    def test_word_outside_rank(self, capsys):
        code, _ = run(capsys, "word", "--op", "normal-form", "--m", "4",
                      "--word", "x7")
        assert code == 2

    def test_missing_word2(self, capsys):
        code, _ = run(capsys, "word", "--op", "equal", "--m", "4",
                      "--word", "x0")
        assert code == 2


class TestCheckCommand:
    def test_relations_even_symbolic(self, capsys):
        code, out = run(capsys, "check", "--suite", "relations", "--m", "6")
        assert code == 0
        assert "PASS" in out

    def test_relations_odd_numeric(self, capsys):
        code, out = run(capsys, "check", "--suite", "relations", "--m", "3",
                        "--lambda", "2", "--mu", "2", "--s", "5")
        assert code == 0

    def test_relations_integer(self, capsys):
        code, out = run(capsys, "check", "--suite", "relations", "--m", "3",
                        "--integer")
        assert code == 0

    def test_golden(self, capsys):
        code, out = run(capsys, "check", "--suite", "golden", "--m", "3")
        assert code == 0
        assert out.count("ok") == 6
        assert out.splitlines()[-2:] == [
            "explicit B3 pair X, Y (12x12), block shapes and X Y X = Y X Y: ok",
            "PASS"]

    def test_golden_fails_on_the_explicit_b3_pair(self, capsys, monkeypatch):
        # Unconjugated, t and x0 t lose the block shapes the paper displays.
        monkeypatch.setattr(reps, "conjugate", lambda m, u: m)
        code, out = run(capsys, "check", "--suite", "golden", "--m", "3")
        assert code == 1
        assert out.count("ok") == 5
        assert out.splitlines()[-2:] == [
            "explicit B3 pair X, Y (12x12), block shapes and X Y X = Y X Y: "
            "FAIL X image does not match its block shape at block row 1",
            "FAIL"]

    def test_golden_table_computed_once(self, capsys, monkeypatch):
        # One golden_check serves the five block lines and the explicit
        # pair; a patched closed form fails both.
        golden = dict(reps.GOLDEN_PSI_X0)
        golden[2] = reps.GOLDEN_PSI_X0[3]
        monkeypatch.setattr(reps, "GOLDEN_PSI_X0", golden)
        calls = []
        real = reps.golden_check

        def golden_check():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "golden_check", golden_check)
        monkeypatch.setattr(reps, "golden_check", golden_check)
        code, out = run(capsys, "check", "--suite", "golden", "--m", "3")
        assert code == 1
        assert len(calls) == 1
        assert "golden block psi2_x0: FAIL" in out.splitlines()
        assert out.splitlines()[-2:] == [
            "explicit B3 pair X, Y (12x12), block shapes and X Y X = Y X Y: "
            "FAIL golden mismatch: ['psi2_x0']",
            "FAIL"]

    def test_golden_wrong_m(self, capsys):
        code, _ = run(capsys, "check", "--suite", "golden", "--m", "4")
        assert code == 2

    def test_center(self, capsys):
        code, out = run(capsys, "check", "--suite", "center", "--m", "4")
        assert code == 0
        assert "s * identity: ok" in out

    def test_faithfulness_short(self, capsys):
        code, out = run(capsys, "check", "--suite", "faithfulness", "--m", "3",
                        "--lambda", "2", "--mu", "2", "--s", "5",
                        "--max-len", "3")
        assert code == 0
        assert "counterexamples: 0" in out

    def test_faithfulness_needs_numeric(self, capsys):
        code, _ = run(capsys, "check", "--suite", "faithfulness", "--m", "3")
        assert code == 2

    def test_nonprime_s_rejected(self, capsys):
        code, _ = run(capsys, "check", "--suite", "relations", "--m", "4",
                      "--lambda", "2", "--mu", "2", "--s", "6")
        assert code == 2

    def test_undecidable_s_exits_2_without_traceback(self):
        # Primality is decided only below 3.317e24; a 30-digit --s is bad
        # input, not a crash.
        src = str(Path(hnnrep.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "hnnrep", "check", "--suite", "relations",
             "--m", "4", "--lambda", "2", "--mu", "2", "--s", "1" + "0" * 29],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _ = run(capsys, "check", "--suite", "golden", "--m", "3",
                      "--json-report", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["suite"] == "golden" and doc["pass"] is True


class TestBuildCommand:
    def test_build_symbolic_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "a4.json"
        code, _ = run(capsys, "build", "--group", "artin", "--m", "4",
                      "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        rep = Representation.from_json(doc)
        assert rep.degree == 4
        assert rep.to_json() == doc

    def test_build_numeric(self, capsys, tmp_path):
        path = tmp_path / "a3.json"
        code, _ = run(capsys, "build", "--group", "artin", "--m", "3",
                      "--lambda", "2", "--mu", "2", "--s", "5",
                      "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["degree"] == 12
        assert doc["ring"] == {"kind": "qp", "prime": 5}

    def test_build_integer(self, capsys, tmp_path):
        path = tmp_path / "b3int.json"
        code, _ = run(capsys, "build", "--group", "artin", "--m", "3",
                      "--integer", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["degree"] == 24
        assert doc["ring"] == {"kind": "integer"}

    def test_build_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        run(capsys, "build", "--group", "artin", "--m", "5", "--out", str(p1))
        run(capsys, "build", "--group", "artin", "--m", "5", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_group(self, capsys, tmp_path):
        code, _ = run(capsys, "build", "--group", "coxeter", "--m", "4",
                      "--out", str(tmp_path / "x.json"))
        assert code == 2


REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "reference.json").read_text()
)


@pytest.mark.parametrize("key", sorted(k for k in REFERENCE if k.startswith("build ")))
def test_build_matches_benchmark_reference(capsys, monkeypatch, tmp_path, key):
    # Every recorded build: the symbolic builds and each (lambda, mu, p)
    # triple in numeric and integer mode.  The output file is the name
    # the recorded stdout ends with, relative to the working directory.
    # The relations the build certified on the word skeleton are also
    # evaluated on its matrices: the defining relations and w_m.
    want = REFERENCE[key]
    out = want["stdout"].split()[-1]
    monkeypatch.chdir(tmp_path)
    built = []
    real = cli._build_artin

    def build(m, args):
        built.append(real(m, args))
        return built[-1]

    monkeypatch.setattr(cli, "_build_artin", build)
    code, stdout = run(capsys, *key.split(), "--out", out)
    assert code == 0
    assert stdout == want["stdout"]
    assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == want["sha256"]
    (rep,) = built
    assert len(rep.relation_reports) == 2 and rep.gen_words is not None
    on_matrices = reps.matrix_relation_reports(rep)
    assert on_matrices == rep.relation_reports
    assert all(report.ok for report in on_matrices)


def _parse_text(parser, argv):
    """(exit code, stdout, stderr) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("tail", [
    ["--help"], [], ["--m", "x"], ["--bogus"], ["--out", "-", "extra"]])
def test_one_command_parser_reads_as_the_full_parser(command, tail):
    # main builds only the subparser argv[0] names; its help and its usage
    # errors (the subcommand's and the top-level parser's) must print the
    # text the full parser prints.
    argv = [command, *tail]
    want = _parse_text(cli.build_parser(), argv)
    assert want[0] is not None and (want[1] or want[2])
    assert _parse_text(cli.build_parser(command), argv) == want


def test_main_builds_only_the_named_subparser(capsys, monkeypatch):
    made = []
    real = cli.build_parser

    def build_parser(*command):
        made.append(command)
        return real(*command)

    monkeypatch.setattr(cli, "build_parser", build_parser)
    assert main(["word", "--op", "normal-form", "--m", "4", "--word", "x0"]) == 0
    for argv in (["--help"], [], ["nope"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert made == [("word",), (), (), ()]
    capsys.readouterr()


def test_parser_built_on_first_use_then_shared():
    probe = ("import hnnrep.cli as c; "
             "print(c.build_parser.cache_info().currsize)")
    src = str(Path(hnnrep.__file__).resolve().parents[1])
    shown = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert shown.stdout.strip() == "0"
    assert cli.build_parser() is cli.build_parser()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Every CLI call pays this import: the package's value records are
    # plain classes, so start-up loads neither module.  -S keeps site's
    # .pth hooks out of the count.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import hnnrep.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(hnnrep.__file__).resolve().parents[1])
    shown = subprocess.run(
        [sys.executable, "-S", "-c", probe, src], capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert shown.stdout.strip() == "[]"


GENS_RANK2 = {
    "degree": 2,
    "generators": [
        {"matrix": [[1, 0], [2, 1]], "inverse": [[1, 0], [-2, 1]]},
        {"matrix": [[1, 2], [0, 1]], "inverse": [[1, -2], [0, 1]]},
    ],
}


@pytest.mark.parametrize("argv, flag", [
    (["build", "--m", "4"], "--out"),
    (["check", "--suite", "relations", "--m", "5"], "--json-report"),
    (["splittable", "--g", "g.json", "--tau", "inner", "--sample-len", "3",
      "--max-len", "2"], "--out"),
])
def test_dash_output_puts_the_document_alone_on_stdout(capsys, monkeypatch,
                                                       tmp_path, argv, flag):
    # With "-", stdout is exactly the text the command writes to a file,
    # and the lines it prints beside a file output go to stderr.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps(GENS_RANK2))
    assert main([*argv, flag, "doc.json"]) == 0
    to_file = capsys.readouterr()
    assert main([*argv, flag, "-"]) == 0
    to_dash = capsys.readouterr()
    assert to_dash.out == (tmp_path / "doc.json").read_text()
    json.loads(to_dash.out)
    assert to_dash.err == to_file.out.replace("doc.json", "-")
    assert to_file.err == ""


@pytest.mark.parametrize("argv, flag", [
    (["build", "--m", "7"], "--out"),
    (["build", "--m", "7", "--lambda", "2", "--mu", "3", "--s", "5"], "--out"),
    (["build", "--m", "7", "--integer"], "--out"),
    (["splittable", "--g", "g.json", "--tau", "inner", "--sample-len", "3",
      "--max-len", "2"], "--out"),
    (["check", "--suite", "relations", "--m", "5", "--integer"], "--json-report"),
], ids=["symbolic", "numeric", "integer", "splittable", "check"])
def test_build_prints_the_bytes_it_writes(tmp_path, argv, flag):
    # Every command that writes a document gives stdout the bytes of the
    # file, build in each mode included.
    src = str(Path(hnnrep.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "hnnrep", *argv, flag]
    env = {**os.environ, "PYTHONPATH": src}
    (tmp_path / "g.json").write_text(json.dumps(GENS_RANK2))
    printed = subprocess.run([*argv, "-"], capture_output=True, timeout=120,
                             check=True, env=env, cwd=tmp_path).stdout
    subprocess.run([*argv, "doc.json"], capture_output=True, timeout=120,
                   check=True, env=env, cwd=tmp_path)
    assert printed == (tmp_path / "doc.json").read_bytes()
    assert printed.endswith(b"\n}\n")


def test_writing_a_document_never_joins_its_text(tmp_path):
    # The writer streams the fragments, and build's fragments share its
    # block rows and zero runs, so its peak allocation is a small share of
    # the document; joining the text once takes about twice the document,
    # its str and the bytes of the file write.
    args = cli.build_parser("build").parse_args(
        ["build", "--m", "9", "--integer", "--lambda", "2", "--mu", "3",
         "--s", "5", "--out", "-"])
    doc = cli._build_artin(9, args).block_document()
    path = tmp_path / "a9.json"
    tracemalloc.start()
    try:
        cli._dump_json(doc, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_000_000
    assert peak < size / 2, (peak, size)


def test_a_refused_document_leaves_the_output_file_as_it_was(
        capsys, monkeypatch, tmp_path):
    # Every fragment is made before the file is opened, so the writer's
    # TypeError on a float comes before the file is truncated.
    path = tmp_path / "doc.json"
    path.write_text("kept\n")
    real = Representation.block_document
    monkeypatch.setattr(Representation, "block_document",
                        lambda rep: {**real(rep), "zz": [1, 0.5]})
    with pytest.raises(TypeError):
        main(["build", "--m", "4", "--out", str(path)])
    assert path.read_text() == "kept\n"
    with pytest.raises(TypeError):
        cli._dump_json({"a": [1, 2.0]}, str(path))
    assert path.read_text() == "kept\n"
    assert capsys.readouterr().out == ""


def _str_digit_limit():
    """CPython's int <-> str digit limit, or None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("flags", [
    ["--mu", "3", "--s", "5"], ["--integer", "--mu", "3", "--s", "5"],
], ids=["numeric", "integer"])
def test_build_writes_integers_past_the_str_digit_limit(capsys, tmp_path, flags):
    # A 2,200-digit lambda gives entries of 4,402 (numeric) and 6,602
    # (integer) digits, past CPython's default limit of 4,300 on int <-> str
    # conversion.  Every scalar is written as a string, so the file reads
    # back under the limit.
    before = _str_digit_limit()
    path = tmp_path / "big.json"
    code, _ = run(capsys, "build", "--m", "3", "--lambda", "7" * 2200, *flags,
                  "--out", str(path))
    assert code == 0
    assert _str_digit_limit() == before
    text = path.read_text()
    assert max(map(len, re.findall(r"\d+", text))) > 4300
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.skipif(_str_digit_limit() is None,
                    reason="this Python has no int <-> str digit limit")
@pytest.mark.parametrize("argv, code", [
    (["word", "--op", "normal-form", "--m", "4", "--word", "x0"], 0),
    (["word", "--op", "normal-form", "--m", "4", "--word", "x7"], 2),
    (["word", "--op", "reverse", "--m", "4", "--word", "x0"], None),
], ids=["exit-0", "exit-2", "usage-error"])
def test_main_restores_the_str_digit_limit(capsys, argv, code):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        if code is None:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)


def _cli_process(*argv, address_space=None):
    """Run the CLI in a child process, its address space capped at
    address_space bytes when given (the limit is set in the child only);
    the completed process and its run time in seconds."""
    src = str(Path(hnnrep.__file__).resolve().parents[1])

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hnnrep", *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
        preexec_fn=cap if address_space else None,
    )
    return proc, time.perf_counter() - started


def _assert_one_error_line(proc, cause):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert cause in proc.stderr


def test_long_integer_entry_exits_2_promptly(tmp_path):
    # A JSON int is read as an int: 300,000 digits cost one decimal parse,
    # not a detour through text and back.
    gens = tmp_path / "g.json"
    gens.write_text('{"degree": 1, "generators": [{"matrix": [[%s]], '
                    '"inverse": [[1]]}]}' % ("7" * 300_000))
    proc, seconds = _cli_process("splittable", "--g", str(gens), "--tau", "trivial",
                                 "--max-len", "1", "--out", str(tmp_path / "rep.json"))
    _assert_one_error_line(proc, "generator pair does not multiply to identity")
    assert seconds < 2.0
    assert not (tmp_path / "rep.json").exists()


def test_deeply_nested_g_document_exits_2(tmp_path):
    gens = tmp_path / "g.json"
    gens.write_text("[" * 100_000 + "]" * 100_000)
    proc, _ = _cli_process("splittable", "--g", str(gens), "--tau", "trivial",
                           "--out", str(tmp_path / "rep.json"))
    _assert_one_error_line(proc, "maximum recursion depth exceeded")


@pytest.mark.parametrize("argv", [
    ["word", "--op", "normal-form", "--m", "100000001", "--word", "x0"],
    ["build", "--m", "100000001", "--out", "rep.json"],
    ["splittable", "--g", "g.json", "--tau", "trivial", "--out", "rep.json"],
], ids=["word", "build", "splittable"])
def test_out_of_memory_exits_2(tmp_path, monkeypatch, argv):
    # Well-formed input too large for a 400 MB address space: no limit on
    # --m or the degree stops it early, and running out is an error line.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text('{"degree": 100000, "generators": []}')
    proc, _ = _cli_process(*argv, address_space=400_000_000)
    _assert_one_error_line(proc, "error: out of memory")
    assert not (tmp_path / "rep.json").exists()


class TestSplittableCommand:
    def test_trivial_phi(self, capsys, tmp_path):
        gens = tmp_path / "g.json"
        gens.write_text(json.dumps(GENS_RANK2))
        out = tmp_path / "rep.json"
        code, text = run(capsys, "splittable", "--g", str(gens),
                         "--sample-len", "3", "--max-len", "3",
                         "--out", str(out))
        assert code == 0
        assert "dimension 4" in text
        doc = json.loads(out.read_text())
        assert doc["dimension"] == 4
        RingMatrix.from_json(doc["actions"]["g0"])

    def test_inner_tau(self, capsys, tmp_path):
        gens = tmp_path / "g.json"
        gens.write_text(json.dumps(GENS_RANK2))
        out = tmp_path / "rep.json"
        code, text = run(capsys, "splittable", "--g", str(gens),
                         "--tau", "inner", "--sample-len", "3",
                         "--max-len", "2", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mDegree"] == 4
        assert doc["dimension"] <= 32

    def test_inconsistent_phi_pairing(self, capsys, tmp_path):
        gens = tmp_path / "g.json"
        gens.write_text(json.dumps(GENS_RANK2))
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({
            "degree": 2,
            "generators": GENS_RANK2["generators"][:1],
        }))
        out = tmp_path / "rep.json"
        code, _ = run(capsys, "splittable", "--g", str(gens),
                      "--phi", str(phi), "--tau", "inner",
                      "--out", str(out))
        assert code == 2

    def test_short_sample_length_builds_the_same_rep(self, capsys, tmp_path):
        # The relations come from the Krylov walk, exact at any sample
        # length: --sample-len only sets the fresh-sample gate's words.
        gens = tmp_path / "g.json"
        gens.write_text(json.dumps(GENS_RANK2))
        docs = []
        for sample_len in ("0", "1", "3"):
            out = tmp_path / f"rep{sample_len}.json"
            code, text = run(capsys, "splittable", "--g", str(gens),
                             "--tau", "inner", "--sample-len", sample_len,
                             "--max-len", "2", "--out", str(out))
            assert code == 0 and text.startswith("dimension 26 (bound 32)\n")
            assert text.endswith("PASS\n")
            docs.append(out.read_text())
        assert docs[0] == docs[1] == docs[2]

    def test_fresh_sample_failure_reported(self, capsys, monkeypatch, tmp_path):
        # The gate forced to fail: K taken as the span of the identity's
        # kernel row alone merges functions that differ elsewhere; the
        # disjoint fresh-sample guard trips and the command names the
        # witness.
        def identity_row_only(kernel, letters, width):
            return [splittable._kernel_row(kernel, kernel.identity)], 1

        monkeypatch.setattr(splittable, "_krylov_walk", identity_row_only)
        gens = tmp_path / "g.json"
        gens.write_text(json.dumps(GENS_RANK2))
        out = tmp_path / "rep.json"
        code, text = run(capsys, "splittable", "--g", str(gens),
                         "--tau", "inner", "--sample-len", "1",
                         "--max-len", "2", "--out", str(out))
        assert code == 1 and not out.exists()
        assert re.fullmatch(
            r"verification failure: fresh-sample check failed for "
            r"(coordinate \S+|basis \d+ under \S+) at fresh word [^:]+: "
            r"direct value \S+, combination \S+\n", text), text

    def test_identity_pair_acting_as_a_non_identity_fails(self, capsys, tmp_path):
        # Phi given as two 1 x 1 identities is trivial, but InnerTau
        # conjugates by the G generators, so phi0 is the identity pair and
        # does not act as the identity: the action is not a function of
        # the pair.  Phi-words and g_i phi_i^+-1 g_i^-1 give 52 + 8 such
        # words to length 3.
        gens = tmp_path / "g.json"
        gens.write_text(json.dumps(GENS_RANK2))
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"degree": 1, "generators": [
            {"matrix": [[1]], "inverse": [[1]]}] * 2}))
        code, text = run(capsys, "splittable", "--g", str(gens),
                         "--phi", str(phi), "--tau", "inner",
                         "--sample-len", "3", "--max-len", "3",
                         "--out", str(tmp_path / "rep.json"))
        assert code == 1
        assert text == (
            "dimension 17 (bound 17)\n"
            "words checked: 457, identity actions: 1\n"
            "injectivity failures: 0, recovery failures: 0, "
            "homomorphism failures: 0\n"
            "well-definedness failures: 60\n"
            "first failure: identity pair at word phi0 acts as a non-identity matrix\n"
            "well-definedness: checked on the walked words only\n"
            "FAIL\n")

    def test_g_acting_on_itself_passes_on_the_walk(self, capsys, tmp_path):
        # --phi as the G matrices themselves: G x| G, whose pairs are well
        # defined, but only the walked words say so.
        gens = tmp_path / "g.json"
        gens.write_text(json.dumps(GENS_RANK2))
        code, text = run(capsys, "splittable", "--g", str(gens),
                         "--phi", str(gens), "--tau", "inner",
                         "--sample-len", "3", "--max-len", "2",
                         "--out", str(tmp_path / "rep.json"))
        assert code == 0
        assert text.startswith("dimension 20 (bound 20)\n")
        assert text.endswith("\nwell-definedness: checked on the walked words only\n"
                             "PASS\n")

    def test_g_acting_on_itself_document_is_pinned(self, capsys, tmp_path):
        # The explicit --phi build of the SL2(Z) pair a = b = 2: its
        # document byte for byte, and its walk count.
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps(GENS_RANK2))
        out = tmp_path / "gg-rep.json"
        code, text = run(capsys, "splittable", "--g", str(gens),
                         "--phi", str(gens), "--tau", "inner",
                         "--sample-len", "3", "--max-len", "2",
                         "--out", str(out))
        assert code == 0
        assert "\nwords checked: 65, identity actions: 1\n" in text
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0c2f2e9b605a414dbb0ecf77b03e51126a44b5ac00614bee5ca471329a3a0a7b")

    def test_negative_sample_len_is_a_usage_error(self, capsys, tmp_path):
        # A negative length leaves a fresh sample of the identity alone;
        # the command refuses it instead of writing an unchecked rep.
        gens = tmp_path / "g.json"
        gens.write_text(json.dumps(GENS_RANK2))
        out = tmp_path / "rep.json"
        assert main(["splittable", "--g", str(gens), "--tau", "inner",
                     "--sample-len", "-2", "--max-len", "2",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: sample_len must be at least 0")
        assert not out.exists()

    def test_decimal_entries_are_read_exactly(self, capsys, tmp_path):
        # 1.00000000000000001 rounds to the float 1.0, but it is not 1, so
        # [[1, 0], [-1, 1]] is not its pair's inverse.
        gens = tmp_path / "g.json"
        gens.write_text('{"degree": 2, "generators": [{"matrix": '
                        '[[1, 0], [1.00000000000000001, 1]], '
                        '"inverse": [[1, 0], [-1, 1]]}]}')
        code = main(["splittable", "--g", str(gens), "--out", str(tmp_path / "rep.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: generator pair does not multiply to identity\n")
        gens.write_text('{"degree": 2, "generators": [{"matrix": '
                        '[[1, 0], [0.5, 1]], "inverse": [[1, 0], [-5e-1, 1]]}]}')
        assert cli._load_gens(str(gens)).pairs[0][0].rows[1][0] == Fraction(1, 2)

    @pytest.mark.parametrize("entry", ["1e2000000", '"1e2000000"'],
                             ids=["number", "string"])
    def test_huge_decimal_exponent_exits_2_promptly(self, capsys, tmp_path, entry):
        # The exact value of 1e2000000 is a two-million-digit integer; the
        # exponent is refused before the conversion builds it.
        gens = tmp_path / "g.json"
        gens.write_text('{"degree": 1, "generators": [{"matrix": [[%s]], '
                        '"inverse": [[1]]}]}' % entry)
        started = time.perf_counter()
        code = main(["splittable", "--g", str(gens), "--tau", "trivial",
                     "--max-len", "1", "--out", str(tmp_path / "rep.json")])
        assert code == 2 and time.perf_counter() - started < 1.0
        assert capsys.readouterr().err == (
            "error: matrix entry '1e2000000' has a decimal exponent past 10000\n")
        assert not (tmp_path / "rep.json").exists()

    def test_bad_inverse_in_file(self, capsys, tmp_path):
        gens = tmp_path / "g.json"
        bad = {
            "degree": 2,
            "generators": [
                {"matrix": [[1, 1], [0, 1]], "inverse": [[1, 1], [0, 1]]},
            ],
        }
        gens.write_text(json.dumps(bad))
        code, _ = run(capsys, "splittable", "--g", str(gens),
                      "--out", str(tmp_path / "rep.json"))
        assert code == 2


@pytest.mark.parametrize("doc", [
    {"degree": 2, "generators": [{"matrix": 5, "inverse": [[1, 0], [0, 1]]}]},
    {"degree": 2, "generators": 5},
    [GENS_RANK2],
    {"degree": 2, "generators": [{"matrix": [["1/0", 0], [0, 1]],
                                  "inverse": [[1, 0], [0, 1]]}]},
    {"degree": -1, "generators": []},
], ids=["matrix-not-rows", "generators-not-list", "top-level-list",
        "zero-denominator", "negative-degree"])
def test_malformed_g_document_exits_2(capsys, tmp_path, doc):
    gens = tmp_path / "g.json"
    gens.write_text(json.dumps(doc))
    code = main(["splittable", "--g", str(gens), "--out", str(tmp_path / "rep.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["check", "--suite", "relations", "--m", "4", "--symbolic", "--integer"],
    ["check", "--suite", "center", "--m", "5", "--integer"],
    ["check", "--suite", "golden", "--m", "3", "--integer"],
    ["check", "--suite", "golden", "--m", "3", "--lambda", "2", "--mu", "2",
     "--s", "5"],
], ids=["symbolic-with-integer", "center-with-integer", "golden-with-integer",
        "golden-with-numeric"])
def test_dropped_mode_flag_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_faithfulness_with_integer_names_the_cause(capsys):
    code = main(["check", "--suite", "faithfulness", "--m", "3", "--integer",
                 "--lambda", "2", "--mu", "2", "--s", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: the faithfulness suite probes the Q_p "
                            "representation and has no integer mode; drop --integer\n")


@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_splittable_max_len_below_one_exits_2_before_building(capsys, tmp_path,
                                                              max_len):
    gens = tmp_path / "g.json"
    gens.write_text(json.dumps(GENS_RANK2))
    code = main(["splittable", "--g", str(gens), "--max-len", max_len,
                 "--out", str(tmp_path / "rep.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --max-len must be at least 1\n"
    assert "dimension" not in captured.out
    assert not (tmp_path / "rep.json").exists()


def test_word_longer_than_the_expansion_bound_exits_2(capsys):
    code = main(["word", "--op", "normal-form", "--m", "4",
                 "--word", "x0^1000000 x1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: word expands to more than 1000000 letters\n"
    assert captured.out == ""


# stdout of `check --suite center` for m = 3..6, recorded from the dense
# degree-k*m matrix products that the suite used before it moved onto
# blocks.  The symbolic mode and the Q_5 mode print the same text.
CENTER_STDOUT = {
    3: """center generator (word level): t t t t t t x0 x1^-1 x0^-1 x1
matrix image of t^n w0 equals s * identity: ok
commutes with x0: ok
commutes with x1: ok
commutes with t: ok
PASS
""",
    4: """center generator (word level): t t x0 x1
matrix image of t^n w0 equals s * identity: ok
commutes with x0: ok
commutes with x1: ok
commutes with t: ok
PASS
""",
    5: """center generator (word level): t t t t t t t t t t x0 x2 x3^-1 x2^-1 x1^-1 x0^-1 x1 x3
matrix image of t^n w0 equals s * identity: ok
commutes with x0: ok
commutes with x1: ok
commutes with x2: ok
commutes with x3: ok
commutes with t: ok
PASS
""",
    6: """center generator (word level): t t t x0 x1 x2
matrix image of t^n w0 equals s * identity: ok
commutes with x0: ok
commutes with x1: ok
commutes with x2: ok
commutes with t: ok
PASS
""",
}


@pytest.mark.parametrize("mode", [[], ["--lambda", "2", "--mu", "3", "--s", "5"]],
                         ids=["symbolic", "qp"])
@pytest.mark.parametrize("m", sorted(CENTER_STDOUT))
def test_center_stdout_pinned(capsys, m, mode):
    code = main(["check", "--suite", "center", "--m", str(m), *mode])
    assert code == 0
    assert capsys.readouterr().out == CENTER_STDOUT[m]


@pytest.mark.parametrize("mode", [[], ["--lambda", "2", "--mu", "3", "--s", "5"],
                                  ["--integer"]], ids=["symbolic", "qp", "integer"])
@pytest.mark.parametrize("m", [3, 4])
def test_relations_suite_builds_once(capsys, monkeypatch, m, mode):
    # One induced representation and two relation verifications per run:
    # the build certifies the defining relations and w_m on the word
    # skeleton, and the suite evaluates both on the built matrices.
    counts = {"builds": 0, "verifications": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(reps, "_induced_representation", "builds")
    counting(reps, "verify_defining_relations", "verifications")
    assert main(["check", "--suite", "relations", "--m", str(m), *mode]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")
    assert counts == {"builds": 1, "verifications": 2}


def _false_defining_relations(spec):
    x0, t = MixedWord.gen(0), MixedWord.t()
    return [(x0 * t, t * x0)]


@pytest.mark.parametrize("mode", [[], ["--lambda", "2", "--mu", "3", "--s", "5"],
                                  ["--integer"]], ids=["symbolic", "qp", "integer"])
def test_failing_relation_still_reports(capsys, monkeypatch, tmp_path, mode):
    # The build stops at the failed defining relation; the suite prints the
    # report it carries, then FAIL, and writes the JSON report.
    monkeypatch.setattr(reps, "defining_relations", _false_defining_relations)
    path = tmp_path / "report.json"
    code = main(["check", "--suite", "relations", "--m", "4", *mode,
                 "--json-report", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("defining relation x0 t = t x0: FAIL (")
    assert lines[-1] == "FAIL"
    doc = json.loads(path.read_text())
    assert doc == {"suite": "relations", "pass": False, "details": lines[:-1]}


@pytest.mark.parametrize("mode", [[], ["--lambda", "2", "--mu", "3", "--s", "5"]],
                         ids=["symbolic", "qp"])
def test_failing_canonical_relation_still_reports(capsys, monkeypatch, tmp_path, mode):
    monkeypatch.setattr(reps, "canonical_relation",
                        lambda m: ([("x", 1), ("y", 1)], [("y", 1), ("x", 1)]))
    path = tmp_path / "report.json"
    code = main(["check", "--suite", "relations", "--m", "4", *mode,
                 "--json-report", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[:2] == ["defining relation t^-1 x0 t = x0 x1 x0^-1: ok",
                         "defining relation t^-1 x1 t = x0: ok"]
    assert lines[2].startswith("canonical relation w_4(x,y) = w_4(y,x): FAIL (")
    assert lines[3:] == ["FAIL"]
    assert json.loads(path.read_text())["pass"] is False


def _relations_suite(capsys, tmp_path, m, flags):
    """(exit code, stdout, JSON report text) of the relations suite."""
    path = tmp_path / "report.json"
    code = main(["check", "--suite", "relations", "--m", str(m), *flags,
                 "--json-report", str(path)])
    return code, capsys.readouterr().out, path.read_text()


RELATION_MODES = {
    "symbolic": [],
    "qp": ["--lambda", "2", "--mu", "3", "--s", "5"],
    "integer": ["--integer"],
    "integer-params": ["--integer", "--lambda", "3", "--mu", "2", "--s", "7"],
}


@pytest.mark.parametrize("failing", [False, True], ids=["pass", "false-w_m"])
@pytest.mark.parametrize("mode", sorted(RELATION_MODES))
@pytest.mark.parametrize("m", range(3, 12))
def test_relations_suite_same_without_certificate(capsys, monkeypatch, tmp_path,
                                                  m, mode, failing):
    # The suite's lines come from the matrices, so forcing the skeleton
    # certificate to fail changes neither stdout nor the JSON report, a
    # failing canonical relation included.
    if failing:
        # x y = y x in place of w_m, for the canonical pair and for the
        # integer variant's x_i / t words
        real = reps.artin_canonical

        def artin_canonical(m):
            x, y, _ = real(m)
            return x, y, (x * y, y * x)

        monkeypatch.setattr(reps, "canonical_relation",
                            lambda m: ([("x", 1), ("y", 1)], [("y", 1), ("x", 1)]))
        monkeypatch.setattr(reps, "artin_canonical", artin_canonical)
    on = _relations_suite(capsys, tmp_path, m, RELATION_MODES[mode])
    monkeypatch.setattr(reps, "_skeleton_report", lambda rep, relations: None)
    off = _relations_suite(capsys, tmp_path, m, RELATION_MODES[mode])
    assert on == off
    assert on[0] == (1 if failing else 0)


def test_relations_suite_evaluates_the_matrices(capsys, monkeypatch, tmp_path):
    # With a certificate that accepts everything and an orbit word of x1
    # with one letter too many (the canonical pair's block shapes do not
    # see x1), the build goes through, and the suite still finds the
    # failure on the matrices.
    def accept_all(rep, relations):
        return reps.RelationReport(tuple(
            reps.RelationResult(str(lhs), str(rhs), True) for lhs, rhs in relations))

    monkeypatch.setattr(reps, "_skeleton_report", accept_all)
    spec = artin_spec(4)
    table = dict(spec.skeleton)
    x1 = table[1, 1]
    cells = ((0, x1.cells[0][1] * Word.gen(0)),) + x1.cells[1:]
    table[1, 1] = Skeleton(x1.perm, cells)
    table[1, -1] = table[1, 1].inverse()
    monkeypatch.setitem(vars(spec), "skeleton", table)
    code, out, report = _relations_suite(capsys, tmp_path, 4, [])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("defining relation t^-1 x0 t = x0 x1 x0^-1: FAIL (")
    assert lines[1].startswith("defining relation t^-1 x1 t = x0: FAIL (")
    assert lines[-1] == "FAIL"
    assert json.loads(report) == {"suite": "relations", "pass": False,
                                  "details": lines[:-1]}


@pytest.mark.parametrize("corruption", ["wrong-s", "swapped-images"])
def test_center_verdicts_match_dense_products(capsys, monkeypatch, corruption):
    # A wrong s fails only the scalar line; swapping the images of x0 and
    # x1 sends t^n w0 to a matrix that commutes with no generator.  The
    # verdicts must be the ones the dense products give.
    hnn = cli._hnn_rep(4, cli.build_parser().parse_args(
        ["check", "--suite", "center", "--m", "4"]))
    images = dict(hnn.images)
    params = dict(hnn.params)
    if corruption == "wrong-s":
        params["s"] = params["s"] * params["s"]
    else:
        images["x0"], images["x1"] = images["x1"], images["x0"]
    rep = Representation(hnn.ring, [(name, *images[name]) for name in hnn.gen_names],
                         spec=hnn.spec, params=params)
    monkeypatch.setattr(cli, "_hnn_rep", lambda m, args: rep)
    z_img = rep.eval(center_generator(rep.spec))
    scalar = RingMatrix.identity(rep.ring, rep.degree).scalar_mul(params["s"])
    expected = [z_img == scalar] + [
        z_img * rep.image(name) == rep.image(name) * z_img
        for name in rep.gen_names
    ]
    assert not all(expected)
    code = main(["check", "--suite", "center", "--m", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.endswith(": ok") for line in lines[1:-1]] == expected
    assert lines[-1] == "FAIL"


# --- Fuzzing the argument surface ------------------------------------------
#
# Every subcommand with a random subset of its flags in random order, each
# value well-formed, malformed or missing, sometimes an unknown flag, and
# paths to good, malformed and missing files.  Numbers stay small (m <= 6,
# lengths <= 2), so each example runs in well under a second.

FUZZ_DOCS = {
    "g.json": GENS_RANK2,
    "cyclic.json": {"degree": 2, "generators": [
        {"matrix": [[1, 1], [0, 1]], "inverse": [[1, -1], [0, 1]]}]},
    "rational.json": {"degree": 2, "generators": [
        {"matrix": [[2, "-1/2"], [2, 0]], "inverse": [[0, "1/2"], [-2, 2]]}]},
    "degree1.json": {"degree": 1, "generators": [
        {"matrix": [[-1]], "inverse": [[-1]]}]},
    "degree0.json": {"degree": 0, "generators": []},
    "ragged.json": {"degree": 2, "generators": [
        {"matrix": [[1, 0], [2]], "inverse": [[1, 0], [-2, 1]]}]},
    "wrong-degree.json": {"degree": 3, "generators": GENS_RANK2["generators"]},
    "not-inverse.json": {"degree": 1, "generators": [
        {"matrix": [[2]], "inverse": [[2]]}]},
    "infinite.json": {"degree": 1, "generators": [
        {"matrix": [[float("inf")]], "inverse": [[1]]}]},
    "list.json": [1, 2],
    "null.json": None,
}
FUZZ_TEXT = {"broken.json": "{not json", "empty.json": "", "binary.json": "\udcff"}
FUZZ_PATHS = [*FUZZ_DOCS, *FUZZ_TEXT, "missing.json", ".", "no-dir/out.json", "-"]

_JUNK = st.sampled_from(["", "x", "1.5", "1e3", "--", "-x", "0x10", " 2"])


# Hypothesis favours the ends of an integer range, so rare cases are drawn
# as the last of ten sampled values instead.
_RARE = st.sampled_from([False] * 9 + [True])


def _mostly(good, bad):
    """good nine times in ten, else bad."""
    return _RARE.flatmap(lambda rare: bad if rare else good)


def _number(values):
    return _mostly(st.sampled_from([str(v) for v in values]), _JUNK)


def _choice(valid, invalid):
    return _mostly(st.sampled_from(valid), st.just(invalid))


_M = _number([3, 4, 5, 6, 2, -1])
_LEN = _number([1, 2, 0, -1, -2])
_PARAM = _number([2, 3, 5, 1, 0, -2, 4])
_PATH = st.sampled_from(FUZZ_PATHS)
_OUT = _mostly(st.just("out.json"), _PATH)
_WORD = st.lists(
    st.sampled_from(["x0", "x1", "x3", "t", "t^-1", "x0^2", "x1^-3", "x",
                     "^", "x0^", "t^x", "y0", "x-1", "x0^1000001"]),
    max_size=6,
).map(" ".join)
_MODE = {"--lambda": _PARAM, "--mu": _PARAM, "--s": _PARAM,
         "--symbolic": None, "--integer": None}
# Per subcommand: its flags with their values (None for a switch), and the
# flags it requires.
FUZZ_FLAGS = {
    "build": ({"--group": _choice(["artin"], "coxeter"), "--m": _M,
               **_MODE, "--out": _OUT}, {"--m", "--out"}),
    "check": ({"--suite": _choice(["relations", "golden", "center",
                                    "faithfulness"], "spectral"),
               "--m": _M, **_MODE, "--max-len": _LEN, "--json-report": _OUT},
              {"--suite", "--m"}),
    "word": ({"--op": _choice(["normal-form", "equal"], "split"),
              "--m": _M, "--word": _WORD, "--word2": _WORD},
             {"--op", "--m", "--word"}),
    "splittable": ({"--g": _PATH, "--phi": _PATH,
                    "--tau": _choice(["trivial", "inner"], "outer"),
                    "--sample-len": _LEN, "--max-len": _LEN, "--out": _OUT},
                   {"--g", "--out"}),
}


@st.composite
def cli_argv(draw):
    command = draw(_choice(sorted(FUZZ_FLAGS), "frobnicate"))
    flags, required = FUZZ_FLAGS.get(command, ({}, set()))
    # A required flag or a value is left out, or an unknown flag added, one
    # time in ten; an optional flag is given half the time.
    chosen = [flag for flag in sorted(flags)
              if not draw(_RARE if flag in required else st.booleans())]
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        argv.append(flag)
        if flags[flag] is not None and not draw(_RARE):
            argv.append(draw(flags[flag]))
    if draw(_RARE):
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in FUZZ_DOCS.items():
        (root / name).write_text(json.dumps(doc))
    for name, text in FUZZ_TEXT.items():
        (root / name).write_text(text, errors="surrogateescape")
    return root


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_fuzzed_argv_exits_cleanly(fuzz_dir, monkeypatch, argv):
    # Bad arguments and bad files exit 2 with an error line, a failed check
    # exits 1; nothing escapes as an exception (a traceback on stderr).
    monkeypatch.chdir(fuzz_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
