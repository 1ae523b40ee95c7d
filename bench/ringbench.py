"""Scalar-ring and normal-form micro-benchmarks.

Wrapping scalar operations in spans would cost more than the operations, so
the ring layer is timed here instead: each operation runs over a pool of
operand pairs drawn from CLI outputs of the same run, and the result is the
median over repeats of the time per operation.
"""

from __future__ import annotations

import json
import operator
import random
from time import perf_counter

from hnnrep.ring import ring_from_descriptor
from hnnrep.words import T_GEN, artin_even_spec, normal_form

PAIRS_PER_POOL = 2000
REPEATS = 7


def matrix_entries(matrix_doc):
    """Decoded nonzero scalar entries of a RingMatrix JSON document."""
    ring = ring_from_descriptor(matrix_doc["ring"])
    out = [ring.scalar_from_json(x) for row in matrix_doc["rows"] for x in row]
    return [x for x in out if x]


def rep_entries(path, generators=None):
    """Entries of the images (and inverse images) of a representation JSON."""
    with open(path) as fh:
        doc = json.load(fh)
    out = []
    for gen in doc["generators"]:
        if generators is None or gen["name"] in generators:
            out += matrix_entries(gen["image"]) + matrix_entries(gen["imageInverse"])
    return out


def action_entries(path):
    """Entries of the action matrices of a splittable JSON."""
    with open(path) as fh:
        doc = json.load(fh)
    return [x for mat in doc["actions"].values() for x in matrix_entries(mat)]


def _pairs(rng, pool):
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(PAIRS_PER_POOL)]


def time_op(pairs, op):
    """Median nanoseconds per operation of op over the operand pairs."""
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        for a, b in pairs:
            op(a, b)
        samples.append((perf_counter() - start) / len(pairs) * 1e9)
    samples.sort()
    return samples[len(samples) // 2]


def ring_metrics(seed, pools):
    """pools maps laurent, qp, int and fraction to operand lists."""
    rng = random.Random(f"ring-pairs:{seed}")
    mul, add = operator.mul, operator.add
    laurent = _pairs(rng, pools["laurent"])
    qp = _pairs(rng, pools["qp"])
    ints = _pairs(rng, pools["int"])
    fractions = _pairs(rng, pools["fraction"])
    return {
        "ring.laurent_mul_ns": time_op(laurent, mul),
        "ring.laurent_add_ns": time_op(laurent, add),
        "ring.qp_mul_ns": time_op(qp, mul),
        "ring.qp_add_ns": time_op(qp, add),
        "ring.int_mul_ns": time_op(ints, mul),
        "ring.fraction_mul_ns": time_op(fractions, mul),
        "ring.fraction_add_ns": time_op(fractions, add),
    }


def probe_words(seed, count=2000, length=7):
    """Seed-drawn reduced mixed words of the A(4) probe at its top length."""
    rng = random.Random(f"words:{seed}")
    letters = [(0, 1), (0, -1), (1, 1), (1, -1), (T_GEN, 1), (T_GEN, -1)]
    words = []
    for _ in range(count):
        word = []
        while len(word) < length:
            sym = rng.choice(letters)
            if word and sym == (word[-1][0], -word[-1][1]):
                continue
            word.append(sym)
        words.append(tuple(word))
    return words


def normal_form_us_per_letter(seed):
    """Median microseconds per letter of normal_form over the A(4) probe
    words; the CLI paths of the workloads never call normal_form, which the
    probe inlines."""
    spec = artin_even_spec(2)
    words = probe_words(seed)
    letters = sum(len(w) for w in words)
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        for w in words:
            normal_form(spec, w)
        samples.append((perf_counter() - start) / letters * 1e6)
    samples.sort()
    return samples[len(samples) // 2]
