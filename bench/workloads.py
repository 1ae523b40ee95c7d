"""Workload definitions: the seed-to-parameter mapping and the CLI calls of
one job.

A job is a plain dict that the parent process writes as JSON and a child
process runs:

    {"workload": str, "job_id": int,
     "files": {relative path: JSON document written before the job starts},
     "commands": [{"key": reference key, "argv": [...], "out": path or None}]}

Every command carries a reference key.  The key names the command and its
parameters without any file path, so the same key recurs across jobs, seeds
and checkouts; `reference.json` maps each key to the expected standard
output and the SHA-256 of the output file.
"""

from __future__ import annotations

import random
import re

WORKLOADS = ("artin-build", "faithfulness-probe", "splittable-inner")

# (lambda, mu, p) triples for numeric Artin builds and the Q_p probe.
TRIPLES = tuple(
    (lam, mu, p) for lam in (2, 3) for mu in (2, 3) for p in (3, 5, 7)
)
# (a, b) for the SL_2(Z) pair [[1,0],[a,1]], [[1,b],[0,1]].
PAIRS = tuple((a, b) for a in (2, 3) for b in (2, 3))

ARTIN_INDICES = tuple(range(3, 11))
ARTIN_MODES = ("symbolic", "numeric", "integer")
PROBE_CASES = ((3, 6), (4, 7))  # (m, max_len)
SPLITTABLE_CASES = (("inner", 3, 3), ("trivial", 4, 4))  # (tau, sample, max)


def _slug(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", key).strip("_") + ".json"


def _mode_flags(mode, triple):
    lam, mu, p = triple
    numeric = ["--lambda", str(lam), "--mu", str(mu), "--s", str(p)]
    if mode == "symbolic":
        return []
    if mode == "numeric":
        return numeric
    return ["--integer"] + numeric


def build_command(m, mode, triple):
    key = " ".join(["build", "--m", str(m)] + _mode_flags(mode, triple))
    out = _slug(key)
    return {"key": key, "argv": key.split() + ["--out", out], "out": out}


def probe_command(m, max_len, triple):
    lam, mu, p = triple
    key = (f"check --suite faithfulness --m {m} --max-len {max_len} "
           f"--lambda {lam} --mu {mu} --s {p}")
    return {"key": key, "argv": key.split(), "out": None}


def g_document(pair):
    """The --g JSON of the SL_2(Z) pair [[1,0],[a,1]], [[1,b],[0,1]]."""
    a, b = pair
    return {
        "degree": 2,
        "generators": [
            {"matrix": [[1, 0], [a, 1]], "inverse": [[1, 0], [-a, 1]]},
            {"matrix": [[1, b], [0, 1]], "inverse": [[1, -b], [0, 1]]},
        ],
    }


def splittable_command(pair, tau, sample_len, max_len, g_path):
    flags = f"--tau {tau} --sample-len {sample_len} --max-len {max_len}"
    key = f"splittable a={pair[0]} b={pair[1]} {flags}"
    out = _slug(key)
    argv = ["splittable", "--g", g_path] + flags.split() + ["--out", out]
    return {"key": key, "argv": argv, "out": out}


class _Cycle:
    """Seed-shuffled passes over a parameter set: every value is used once
    before any is used twice, so a short run still spreads its jobs over the
    set instead of repeating one draw."""

    def __init__(self, rng, values):
        self.rng = rng
        self.values = tuple(values)
        self.queue = []

    def next(self):
        if not self.queue:
            self.queue = list(self.values)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def job_stream(workload: str, seed: int):
    """Endless generator of the jobs of one run; the same seed gives the
    same jobs in the same order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    triples = _Cycle(rng, TRIPLES)
    pairs = _Cycle(rng, PAIRS)
    job_id = 0
    while True:
        files = {}
        if workload == "artin-build":
            triple = triples.next()
            commands = [
                build_command(m, mode, triple)
                for mode in ARTIN_MODES for m in ARTIN_INDICES
            ]
            rng.shuffle(commands)
        elif workload == "faithfulness-probe":
            triple = triples.next()
            commands = [probe_command(m, L, triple) for m, L in PROBE_CASES]
        else:
            pair = pairs.next()
            files["g.json"] = g_document(pair)
            commands = [
                splittable_command(pair, tau, s, L, "g.json")
                for tau, s, L in SPLITTABLE_CASES
            ]
        yield {"workload": workload, "job_id": job_id, "files": files,
               "commands": commands}
        job_id += 1


def pool_job(seed: int):
    """The CLI calls whose outputs feed the ring micro-benchmarks: the
    symbolic A(9) build, the Q_p and integer builds of one seed-drawn
    triple, and the trivial-tau splittable closure of one seed-drawn pair."""
    rng = random.Random(f"ring:{seed}")
    triple = rng.choice(TRIPLES)
    pair = rng.choice(PAIRS)
    commands = [build_command(9, "symbolic", triple)]
    commands += [build_command(m, mode, triple)
                 for mode in ("numeric", "integer") for m in ARTIN_INDICES]
    commands.append(splittable_command(pair, *SPLITTABLE_CASES[1], "g.json"))
    return {"workload": "ring", "job_id": 0, "seed": seed,
            "files": {"g.json": g_document(pair)}, "commands": commands}


def all_reference_commands():
    """Every (files, command) the seed parameter set can produce; the
    reference recorder runs each once."""
    for triple in TRIPLES:
        for mode in ("numeric", "integer"):
            for m in ARTIN_INDICES:
                yield {}, build_command(m, mode, triple)
    for m in ARTIN_INDICES:
        yield {}, build_command(m, "symbolic", TRIPLES[0])
    for triple in TRIPLES:
        for m, L in PROBE_CASES:
            yield {}, probe_command(m, L, triple)
    for pair in PAIRS:
        for tau, s, L in SPLITTABLE_CASES:
            yield ({"g.json": g_document(pair)},
                   splittable_command(pair, tau, s, L, "g.json"))
