"""Value records (hnnrep._record): equality, hash, repr and immutability
keep the semantics the outputs rely on."""

import copy

import pytest

from hnnrep import reps
from hnnrep.errors import VerificationError
from hnnrep.matrix import RingMatrix
from hnnrep.reps import ProbeReport, RelationReport, RelationResult
from hnnrep.ring import QQ
from hnnrep.semidirect import MatrixGroupGens, SemidirectElement
from hnnrep.splittable import ShiftedCoordinate, SplittableReport
from hnnrep.words import (
    Endomorphism,
    HnnSpec,
    HolomorphCheck,
    MixedWord,
    NormalForm,
    Skeleton,
    Word,
    artin_even_spec,
    holomorph_conjugation_check,
    normal_form,
)

SYMS = ((0, 1), (1, -1), (0, 1))


def _examples():
    spec = artin_even_spec(2)
    element = SemidirectElement(((("phi", 0, 1)),), RingMatrix.identity(QQ, 1),
                                RingMatrix.identity(QQ, 2))
    result = RelationResult("x y", "y x", False, (0, 2, "1", "1 - lam*mu"))
    return [
        (Word(SYMS), ("syms",)),
        (MixedWord(((0, 1), (-1, 1))), ("syms",)),
        (Endomorphism.identity(2), ("rank", "images", "inverse_images")),
        (spec.skeleton[0, 1], ("perm", "cells")),
        (spec, ("rank", "phi", "n", "w0")),
        (normal_form(spec, MixedWord(((-1, -1), (0, 1), (-1, 1)))), ("l", "f")),
        (holomorph_conjugation_check(spec.phi, Word.gen(0)), ("ok", "convention")),
        (result, ("lhs", "rhs", "ok", "mismatch")),
        (RelationReport((result,)), ("results",)),
        (MatrixGroupGens.from_int_rows(2, [([[1, 0], [2, 1]], [[1, 0], [-2, 1]])]),
         ("degree", "pairs")),
        (element, ("word", "phi_mat", "g_mat")),
        (ShiftedCoordinate(("g", 0, 1), element), ("coord", "shift")),
    ]


FROZEN = _examples()
MUTABLE = [
    (ProbeReport(3), ("max_len", "words_checked", "identity_count",
                      "counterexamples", "counterexample_count")),
    (SplittableReport(max_len=2), (
        "max_len", "words_checked", "identity_actions", "pairs_checked",
        "injectivity_failures", "recovery_failures", "homomorphism_failures",
        "well_definedness_failures", "witness")),
]
IDS = [type(x).__name__ for x, _ in FROZEN + MUTABLE]


def fields_of(x, names):
    return tuple(getattr(x, name) for name in names)


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("record, names", FROZEN + MUTABLE, ids=IDS)
def test_equality_is_class_exact_over_the_fields(record, names):
    twin = copy.copy(record)
    assert twin is not record and twin == record and not twin != record
    assert record != fields_of(record, names)
    assert record.__eq__(fields_of(record, names)) is NotImplemented


def test_word_and_mixed_word_differ():
    assert Word(SYMS) == Word(SYMS) and MixedWord(SYMS) == MixedWord(SYMS)
    assert Word(SYMS) != MixedWord(SYMS) and MixedWord(SYMS) != Word(SYMS)
    assert Word(SYMS).__eq__(MixedWord(SYMS)) is NotImplemented
    assert Word(SYMS) != Word(SYMS[:2])


@pytest.mark.parametrize("record, names", FROZEN, ids=IDS[:len(FROZEN)])
def test_hash_is_the_hash_of_the_fields(record, names):
    # Set and dict orders, and so the outputs, follow these hashes.
    assert hash_or_error(record) == hash_or_error(fields_of(record, names))


def test_hashes_of_words_are_fixed():
    assert hash(Word.gen(0)) == hash((((0, 1),),))
    assert list({Word.gen(i, s) for i in range(5) for s in (1, -1)}) == [
        Word.gen(i, s) for i, s in [(3, -1), (2, 1), (3, 1), (4, 1), (0, 1),
                                    (1, 1), (4, -1), (2, -1), (0, -1), (1, -1)]]


@pytest.mark.parametrize("record, names", FROZEN + MUTABLE, ids=IDS)
def test_repr_names_every_field(record, names):
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{type(record).__name__}({shown})"


def test_repr_texts():
    assert repr(Word(SYMS)) == "Word(syms=((0, 1), (1, -1), (0, 1)))"
    assert repr(Endomorphism.identity(2)) == (
        "Endomorphism(rank=2, images=(Word(syms=((0, 1),)), Word(syms=((1, 1),))), "
        "inverse_images=(Word(syms=((0, 1),)), Word(syms=((1, 1),))))")
    assert repr(HolomorphCheck(True, "ltr")) == "HolomorphCheck(ok=True, convention='ltr')"
    assert repr(SplittableReport(max_len=2)) == (
        "SplittableReport(max_len=2, words_checked=0, identity_actions=0, "
        "pairs_checked=0, injectivity_failures=0, recovery_failures=0, "
        "homomorphism_failures=0, well_definedness_failures=0, witness=None)")


def test_endomorphism_table_takes_no_part():
    e = Endomorphism.identity(2)
    other = Endomorphism(2, e.images, e.inverse_images)
    object.__setattr__(other, "table", {})
    assert other == e and hash(other) == hash(e) and repr(other) == repr(e)
    assert "table" not in repr(e)


@pytest.mark.parametrize("record, names", FROZEN, ids=IDS[:len(FROZEN)])
def test_frozen_fields_cannot_change(record, names):
    before = fields_of(record, names)
    for name in (*names, "other"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, name)
    assert fields_of(record, names) == before


@pytest.mark.parametrize("cls", [ProbeReport, SplittableReport])
def test_reports_are_mutable_and_unhashable(cls):
    a, b = cls(3), cls(3)
    assert a == b
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    a.words_checked += 1
    assert a.words_checked == 1 and a != b


def test_each_probe_report_has_its_own_list():
    a, b = ProbeReport(3), ProbeReport(3)
    a.counterexamples.append("x0")
    assert b.counterexamples == [] and a.counterexamples is not b.counterexamples


def test_relation_failure_text(monkeypatch):
    # The VerificationError text embeds the failed results' reprs.
    monkeypatch.setattr(reps, "canonical_relation",
                        lambda m: ([("x", 1), ("y", 1)], [("y", 1), ("x", 1)]))
    with pytest.raises(VerificationError) as failed:
        reps.artin_even(2)
    assert str(failed.value) == (
        "canonical relation fails for A(4): [RelationResult(lhs='x y', "
        "rhs='y x', ok=False, mismatch=(0, 2, '1', '1 - lam*mu'))]")


def test_hnn_spec_keeps_its_cached_properties():
    spec = artin_even_spec(2)
    assert isinstance(spec, HnnSpec)
    assert spec.phi_inv is spec.phi_inv and "phi_inv" in vars(spec)
    assert isinstance(spec.skeleton[0, 1], Skeleton)
    assert isinstance(normal_form(spec, MixedWord()), NormalForm)
