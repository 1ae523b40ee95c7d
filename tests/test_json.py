"""JSON readers: bit-exact round trips of `build` output, and ValueError
(never KeyError or TypeError) on malformed matrix and representation
documents.  The writer: the text of json.dumps(indent=2, sort_keys=True),
and build documents rendered from blocks equal to the dense layout."""

import contextlib
import copy
import functools
import io
import json
import time

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hnnrep import cli
from hnnrep.cli import main
from hnnrep.errors import VerificationError
from hnnrep.matrix import BlockMonomial, RingMatrix
from hnnrep.reps import Representation
from hnnrep.ring import INT, LAURENT, QP_MAX_JSON_EXPONENT, QQ, LaurentPoly, QpRing, QpScalar

from helpers import _json_text

MODE_FLAGS = {
    "symbolic": [],
    "numeric": ["--lambda", "2", "--mu", "3", "--s", "5"],
    "integer": ["--integer", "--lambda", "2", "--mu", "3", "--s", "5"],
}
INDICES = range(3, 7)


@functools.cache
def build_text(m, mode):
    """The text `build --m m --out -` writes in the given mode, without its
    final newline.  Stdout holds the document alone; the `wrote` line goes
    to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["build", "--m", str(m), *MODE_FLAGS[mode], "--out", "-"]) == 0
    json.loads(out.getvalue())
    assert err.getvalue().startswith("wrote ")
    assert out.getvalue().endswith("}\n")
    return out.getvalue()[:-1]


def build_doc(m, mode):
    return json.loads(build_text(m, mode))


def dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
@pytest.mark.parametrize("m", INDICES)
def test_build_output_round_trips_bit_exact(m, mode):
    text = build_text(m, mode)
    assert dump(Representation.from_json(json.loads(text)).to_json()) == text


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from(INDICES), mode=st.sampled_from(sorted(MODE_FLAGS)),
       data=st.data())
def test_generator_subsets_round_trip_bit_exact(m, mode, data):
    doc = build_doc(m, mode)
    gens = doc["generators"]
    order = data.draw(st.permutations(range(len(gens))))
    keep = data.draw(st.integers(1, len(gens)))
    doc["generators"] = [gens[i] for i in order[:keep]]
    assert Representation.from_json(copy.deepcopy(doc)).to_json() == doc


# Values that no scalar encoding, row list or descriptor accepts.
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _matrix(doc, data):
    """A generator's image or inverse document, drawn from doc."""
    gen = data.draw(st.sampled_from(doc["generators"]))
    return gen, data.draw(st.sampled_from(["image", "imageInverse"]))


def corrupt_rows_not_list(doc, data, source):
    gen, key = _matrix(doc, data)
    gen[key]["rows"] = data.draw(st.one_of(JUNK, st.text(max_size=4)))


def corrupt_row_not_list(doc, data, source):
    gen, key = _matrix(doc, data)
    rows = gen[key]["rows"]
    rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(JUNK)


def corrupt_ragged(doc, data, source):
    gen, key = _matrix(doc, data)
    rows = gen[key]["rows"]
    rows[data.draw(st.integers(0, len(rows) - 1))].pop()


def corrupt_non_square(doc, data, source):
    gen, key = _matrix(doc, data)
    mat = gen[key]
    mat["rows"].pop(data.draw(st.integers(0, len(mat["rows"]) - 1)))
    mat["degree"] = len(mat["rows"])


def corrupt_matrix_degree(doc, data, source):
    gen, key = _matrix(doc, data)
    degree = gen[key]["degree"]
    gen[key]["degree"] = data.draw(st.one_of(
        JUNK, st.integers().filter(lambda d: d != degree), st.just(str(degree))
    ))


def corrupt_doc_degree(doc, data, source):
    degree = doc["degree"]
    doc["degree"] = data.draw(st.one_of(
        JUNK, st.integers().filter(lambda d: d != degree), st.just(str(degree))
    ))


def corrupt_unknown_ring(doc, data, source):
    gen, key = _matrix(doc, data)
    kind = data.draw(st.one_of(
        JUNK, st.text(max_size=8).filter(
            lambda k: k not in ("laurent", "qp", "integer", "rational"))
    ))
    gen[key]["ring"] = data.draw(st.sampled_from([{"kind": kind}, kind]))


def corrupt_nonprime_ring(doc, data, source):
    prime = data.draw(st.one_of(
        JUNK, st.sampled_from([-7, -1, 0, 1, 4, 9, 15, 1001, "5"])
    ))
    ring = data.draw(st.sampled_from([{"kind": "qp", "prime": prime}, {"kind": "qp"}]))
    if data.draw(st.booleans()):
        doc["ring"] = ring
    else:
        gen, key = _matrix(doc, data)
        gen[key]["ring"] = ring


def corrupt_bad_scalar(doc, data, source):
    gen, key = _matrix(doc, data)
    rows = gen[key]["rows"]
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(JUNK)


def corrupt_mixed_degree(doc, data, source):
    m, mode = source
    other = build_doc(m + 1 if m < 6 else m - 1, mode)
    i = data.draw(st.integers(0, len(doc["generators"]) - 1))
    donor = data.draw(st.sampled_from(other["generators"]))
    doc["generators"][i] = dict(donor, name=doc["generators"][i]["name"])


def corrupt_mixed_ring(doc, data, source):
    m, mode = source
    if mode == "integer":
        doc["generators"][0]["image"]["ring"] = {"kind": "rational"}
        return
    other = build_doc(m, "numeric" if mode == "symbolic" else "symbolic")
    i = data.draw(st.integers(0, len(doc["generators"]) - 1))
    doc["generators"][i] = other["generators"][i]


def corrupt_missing_image(doc, data, source):
    gen, key = _matrix(doc, data)
    del gen[key]


def corrupt_structure(doc, data, source):
    choice = data.draw(st.integers(0, 4))
    if choice == 0:
        doc["generators"] = data.draw(JUNK)
    elif choice == 1:
        doc["generators"] = []
    elif choice == 2:
        doc["generators"][0] = data.draw(JUNK)
    elif choice == 3:
        doc["generators"][0]["name"] = data.draw(JUNK)
    else:
        doc["generators"].append(doc["generators"][0])  # repeated name


CORRUPTIONS = [
    corrupt_rows_not_list, corrupt_row_not_list, corrupt_ragged,
    corrupt_non_square, corrupt_matrix_degree, corrupt_doc_degree,
    corrupt_unknown_ring, corrupt_nonprime_ring, corrupt_bad_scalar,
    corrupt_mixed_degree, corrupt_mixed_ring, corrupt_missing_image,
    corrupt_structure,
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__[8:])
@settings(max_examples=25, deadline=None)
@given(m=st.sampled_from(INDICES), mode=st.sampled_from(sorted(MODE_FLAGS)),
       data=st.data())
def test_malformed_document_raises_value_error(corrupt, m, mode, data):
    doc = build_doc(m, mode)
    corrupt(doc, data, (m, mode))
    with pytest.raises(ValueError):
        Representation.from_json(doc)


def _paths(node, prefix=()):
    """Every (container, key) position in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


# Integers stay small: a p-adic exponent or a prime of a thousand digits is
# well-formed, only slow to compute with.
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000),
              st.floats(allow_nan=False), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(sorted(MODE_FLAGS)), data=st.data())
def test_any_replaced_node_gives_value_or_verification_error(mode, data):
    doc = build_doc(3, mode)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(JSON_VALUES)
    try:
        Representation.from_json(doc)
    except (ValueError, VerificationError):
        pass


@pytest.mark.parametrize("doc", [
    None,
    [],
    {"degree": 2, "ring": {"kind": "integer"}},
    {"degree": 2, "ring": {"kind": "integer"}, "rows": [["1", "0"], ["0"]]},
    {"degree": 2, "ring": {"kind": "integer"}, "rows": [["1", "0"]]},
    {"degree": 3, "ring": {"kind": "integer"}, "rows": [["1", "0"], ["0", "1"]]},
    {"degree": True, "ring": {"kind": "integer"}, "rows": [["1"]]},
    {"degree": 1, "ring": {"kind": "octonion"}, "rows": [["1"]]},
    {"degree": 1, "ring": {"kind": "qp", "prime": 6}, "rows": [[["1", 0]]]},
    {"degree": 1, "ring": {"kind": "qp", "prime": "5"}, "rows": [[["1", 0]]]},
    {"degree": 1, "ring": "integer", "rows": [["1"]]},
    {"degree": 1, "ring": {"kind": "integer"}, "rows": [[1.5]]},
    {"degree": 1, "ring": {"kind": "qp", "prime": 5}, "rows": [[["1", -1]]]},
    {"degree": 1, "ring": {"kind": "laurent"}, "rows": [[[[0, 0, 0]]]]},
    {"degree": 1, "ring": {"kind": "laurent"}, "rows": [[[[0, 0, 0, "1"], [0, 0, 0, "2"]]]]},
    {"degree": 1, "ring": {"kind": "rational"}, "rows": [["1/0"]]},
])
def test_malformed_matrix_raises_value_error(doc):
    with pytest.raises(ValueError):
        RingMatrix.from_json(doc)


def _qp_entry(k):
    return {"degree": 1, "ring": {"kind": "qp", "prime": 5}, "rows": [[["1", k]]]}


def test_huge_qp_exponent_rejected_promptly():
    # Summing ["1", k] with 1 would compute 5^k.
    started = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds"):
        RingMatrix.from_json(_qp_entry(10**7))
    assert time.perf_counter() - started < 1.0


def test_qp_exponent_at_bound_accepted():
    mat = RingMatrix.from_json(_qp_entry(QP_MAX_JSON_EXPONENT))
    (x,), = mat.rows
    assert (x + mat.ring.one).k == QP_MAX_JSON_EXPONENT
    with pytest.raises(ValueError):
        RingMatrix.from_json(_qp_entry(QP_MAX_JSON_EXPONENT + 1))


# The writer against json.dumps(indent=2, sort_keys=True).

TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=()), max_size=8),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", " ",
                     "\ud800", "😀", ""]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-(10**60), 10**60), st.sampled_from([0, 1, -1, True, False]),
    TEXT,
)


@st.composite
def _with_repeats(draw, children):
    """A list of objects drawn from a small pool, so one object (a list,
    say) recurs both next to itself and further on."""
    pool = draw(st.lists(children, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))
    return [pool[i] for i in picks]


WRITER_TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4),
        _with_repeats(children),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(WRITER_TREES)
def test_writer_matches_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_writer_writes_shared_objects_like_any_other():
    row = ["0", "1"]
    doc = {"a": [row, row, [], row], "b": [1, True, 1, None, False, 0]}
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    1.5, [0, 2.0], {"a": [float("nan")]}, {1: "x"}, {"a": {None: 1}},
    (1, 2), {"a": (1,)}, {"a": {1, 2}},
])
def test_writer_rejects_what_it_does_not_write(doc):
    with pytest.raises(TypeError):
        _json_text(doc)


def _dense_document(rep):
    """The document as it was laid out from the dense images."""
    return {
        "group": rep.group,
        "degree": rep.degree,
        "ring": rep.ring.descriptor(),
        "generators": [
            {"name": name, "image": rep.image(name).to_json(),
             "imageInverse": rep.inverse_image(name).to_json()}
            for name in rep.gen_names
        ],
    }


@pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
@pytest.mark.parametrize("m", range(3, 13))
def test_block_document_equals_dense_document(m, mode, capsys, monkeypatch):
    built = []
    real = cli._build_artin
    monkeypatch.setattr(cli, "_build_artin",
                        lambda m, args: built.append(real(m, args)) or built[-1])
    assert main(["build", "--m", str(m), *MODE_FLAGS[mode], "--out", "-"]) == 0
    (rep,) = built
    doc = rep.to_json()
    assert doc == _dense_document(rep)
    assert _json_text(doc) == dump(doc)
    assert capsys.readouterr().out == dump(_dense_document(rep)) + "\n"


# The block renderer on random block-monomial matrices over every ring.

P = 5
RINGS = {"laurent": LAURENT, "qp": QpRing(P), "integer": INT, "rational": QQ}
SCALARS_OF = {
    "laurent": st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)),
        st.integers(-(10**20), 10**20), max_size=3,
    ).map(LaurentPoly),
    # num * p^e / p^k: negative and positive valuations.
    "qp": st.builds(lambda u, e, k: QpScalar(u * P**e, k, P),
                    st.integers(-(10**6), 10**6), st.integers(0, 3), st.integers(0, 3)),
    "integer": st.integers(-(10**30), 10**30),
    "rational": st.fractions(max_denominator=10**6),
}


def _entries(name):
    """Scalars of the ring, zero often."""
    return st.one_of(st.just(RINGS[name].zero), SCALARS_OF[name])


def _block_monomial(data, name, k, m, unit=False):
    """A random k-block matrix with m x m blocks, zero entries included.
    With unit set, m = 2 and each block is [[1 + xy, x], [y, 1]], of
    determinant 1."""
    ring, entries = RINGS[name], _entries(name)
    perm = tuple(data.draw(st.permutations(range(k))))
    if unit:
        xy = [(data.draw(entries), data.draw(entries)) for _ in range(k)]
        blocks = tuple(((ring.one + x * y, x), (y, ring.one)) for x, y in xy)
    else:
        row = st.tuples(*[entries] * m)
        blocks = tuple(data.draw(st.tuples(*[row] * m)) for _ in range(k))
    return BlockMonomial(ring, perm, blocks)


def _sharing(a, b):
    """b with its first block replaced by a's first block object."""
    return BlockMonomial(b.ring, b.perm, (a.blocks[0], *b.blocks[1:]))


# No shrinking: on a broken renderer, shrinking the Laurent and big-integer
# examples takes minutes, and the example as drawn shows the failure.
@settings(max_examples=120, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(name=st.sampled_from(sorted(RINGS)), k=st.integers(1, 6),
       m=st.integers(1, 3), data=st.data())
def test_block_renderer_writes_the_dense_document(name, k, m, data):
    # One block object in two matrices, and one matrix at two depths.
    a = _block_monomial(data, name, k, m)
    b = _sharing(a, _block_monomial(data, name, k, m))
    doc = {"image": a, "pair": [b, {"again": a}], "name": "x"}
    dense = {"image": a.to_matrix().to_json(),
             "pair": [b.to_matrix().to_json(), {"again": a.to_matrix().to_json()}],
             "name": "x"}
    assert _json_text(doc) == dump(dense)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(RINGS)), k=st.integers(1, 6),
       count=st.integers(1, 3), data=st.data())
def test_block_representation_text_reads_back(name, k, count, data):
    images = [_block_monomial(data, name, k, 2, unit=True) for _ in range(count)]
    if count > 1:
        images[1] = _sharing(images[0], images[1])
    rep = Representation(RINGS[name], [(f"g{i}", image, None)
                                       for i, image in enumerate(images)],
                         group="random")
    text = _json_text(rep.block_document())
    assert text == dump(_dense_document(rep))
    again = Representation.from_json(json.loads(text))
    assert all(len(image.perm) == 1 for image, _ in again.images.values())
    assert _json_text(again.block_document()) == text
