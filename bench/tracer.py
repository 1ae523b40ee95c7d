"""Outside-in span tracer for hnnrep.

The tracer wraps public functions and methods of the package from outside:
it replaces each target in every `hnnrep` module namespace that bound it
(a name imported with `from .reps import probe_faithfulness` is a separate
binding in `hnnrep.cli`), records one span per call, and puts the original
objects back on `restore()`.  Nothing in the package is edited.

A span is `(name, start, end, parent, job_id)`: `parent` is the index of the
enclosing span in the same job, or -1.  Spans stay in memory until the job
ends.  Self time and per-name totals are computed afterwards from the spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute path, span name).  A span name ending in "." is
# completed per call from the ring of the matrix (`matrix.mul.laurent`, ...).
TARGETS = (
    ("hnnrep.cli", "main", "cli.command"),
    ("hnnrep.reps", "artin_even", "reps.construct"),
    ("hnnrep.reps", "artin_odd", "reps.construct"),
    ("hnnrep.reps", "integer_hnn", "reps.construct"),
    ("hnnrep.reps", "hnn_induced_rep", "reps.construct"),
    ("hnnrep.reps", "sigma_free", "reps.construct"),
    ("hnnrep.reps", "Representation.__init__", "reps.representation_init"),
    ("hnnrep.reps", "Representation.eval", "reps.eval"),
    ("hnnrep.reps", "verify_defining_relations", "reps.verify_relations"),
    ("hnnrep.reps", "probe_faithfulness", "reps.probe"),
    ("hnnrep.reps", "Representation.to_json", "reps.to_json"),
    ("hnnrep.matrix", "RingMatrix.__mul__", "matrix.mul."),
    ("hnnrep.matrix", "block_grid", "matrix.block"),
    ("hnnrep.matrix", "block_diag", "matrix.block"),
    ("hnnrep.matrix", "block_companion", "matrix.block"),
    ("hnnrep.matrix", "get_block", "matrix.block"),
    ("hnnrep.matrix", "conjugate", "matrix.block"),
    ("hnnrep.matrix", "det_bareiss", "matrix.det"),
    ("hnnrep.words", "Endomorphism.apply", "words.apply"),
    ("hnnrep.words", "artin_even_spec", "words.spec"),
    ("hnnrep.words", "artin_odd_spec", "words.spec"),
    ("hnnrep.words", "artin_canonical", "words.spec"),
    ("hnnrep.words", "Endomorphism.compose", "words.compose"),
    ("hnnrep.words", "Endomorphism.power", "words.compose"),
    ("hnnrep.splittable", "MatrixGroupGens.from_json", "splittable.load"),
    ("hnnrep.splittable", "validate_tau", "splittable.validate_tau"),
    ("hnnrep.splittable", "build_rep", "splittable.build"),
    ("hnnrep.splittable", "int_g_rep", "splittable.int_g_rep"),
    ("hnnrep.splittable", "semidirect_mul", "splittable.semidirect_mul"),
    ("hnnrep.splittable", "InnerTau.tau_pair", "splittable.tau_pair"),
    ("hnnrep.splittable", "TrivialTau.tau_pair", "splittable.tau_pair"),
    ("hnnrep.splittable", "verify_rep", "splittable.verify"),
    ("hnnrep.splittable", "SplittableRep.recover", "splittable.recover"),
    ("hnnrep.splittable", "SplittableRep.to_json", "splittable.to_json"),
)

RINGS = ("laurent", "qp", "integer", "rational")

SPAN_NAMES = tuple(dict.fromkeys(
    name for _, _, span in TARGETS
    for name in ([span + r for r in RINGS] if span.endswith(".") else [span])
))


class Tracer:
    """Wraps targets, records spans, and restores the originals."""

    def __init__(self, job_id: int = 0, keep=()):
        self.job_id = job_id
        self.spans = []
        # (span name, return value) for the span names in keep, so a caller
        # can read counts off the reports the CLI discards.
        self.returns = []
        self._keep = frozenset(keep)
        self._stack = []
        self._patches = []  # (owner, attribute, original object)

    def wrap(self, fn, span):
        """Return a wrapper of fn that records a span per call.

        A span name ending in "." gets the ring kind of the first argument
        appended, which splits RingMatrix.__mul__ by ring."""
        spans, stack, job_id = self.spans, self._stack, self.job_id
        by_ring = {r: span + r for r in RINGS} if span.endswith(".") else None
        returns = self.returns if span in self._keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = by_ring[args[0].ring.kind] if by_ring else span
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if returns is not None:
                    returns.append((span, result))
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, job_id)

        return traced

    def install(self):
        """Patch every target; a name that several modules bound is patched
        in each of them."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, path, span in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, span))
                else:
                    new = self.wrap(raw, span)
                self._patch(cls, attr, raw, new)
                continue
            original = getattr(module, path)
            new = self.wrap(original, span)
            for name, mod in list(sys.modules.items()):
                if name != "hnnrep" and not name.startswith("hnnrep."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, new)

    def _patch(self, owner, attr, original, new):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self):
        """Put back every original object, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per span: its duration minus the union of its direct children."""
    children = [[] for _ in spans]
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(start, end, children[i])
        for i, (_name, start, end, _parent, _job) in enumerate(spans)
    ]


def summarize(spans):
    """Per span name: calls, total_s and self_s.

    total_s counts only outermost spans of a name (those without an
    ancestor of the same name), so recursion is not counted twice."""
    selfs = self_times(spans)
    out = {}
    for i, (name, start, end, parent, _job) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["total_s"] += end - start
    return out


def hit_ratio(spans, name):
    """Share of `name` spans that have no direct child of the same name: a
    memoised call that answered without recursing."""
    nested = set()
    total = 0
    for i, (n, _s, _e, parent, _job) in enumerate(spans):
        if n != name:
            continue
        total += 1
        if parent >= 0 and spans[parent][0] == name:
            nested.add(parent)
    return (total - len(nested)) / total if total else 0.0
