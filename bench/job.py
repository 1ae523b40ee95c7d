"""One benchmark job in its own process.

    python3 job.py JOB_JSON RESULT_JSON MODE

MODE is `setup` (get ready, time the calibration work, exit), `run` (run
the job untraced), `trace` (run it under the span tracer) or `ring` (run
the job, then time the ring micro-benchmarks on its outputs).  The process prints `ready` once the
interpreter is up, `hnnrep` is imported and the job's input files are
written; the parent times set-up up to that line.  Each CLI call goes
through `hnnrep.cli.main`, the entry point users run, with its standard
output captured.  The calibration work (`calibrate`) is timed before and
after the job.  The result file holds the job's wall time, the two
calibration times, peak RSS, and per command its exit code, output, and
output-file digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

import hnnrep.cli

# Modules the CLI itself does not load (hashlib, resource, the tracer, the
# micro-benchmarks) are imported after the timed part, so that set-up
# measures what a CLI call pays.

# Span names whose return values are kept: the reports the CLI prints and
# then discards carry the counts the derived metrics need.
KEEP = ("reps.probe", "splittable.build", "splittable.verify")


def calibrate():
    """Seconds that a fixed piece of interpreter work takes right now.

    The work mixes the kinds the package does (small-int arithmetic, dict
    updates, Fractions with growing big-int terms), so its time follows the
    machine's speed while the job runs."""
    from fractions import Fraction

    start = perf_counter()
    table = {}
    x = 1
    for k in range(100000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + k
    f = Fraction(1, 3)
    for k in range(2000):
        f = f * Fraction(k + 1, k + 2) + Fraction(1, k + 3)
    return perf_counter() - start


def run_command(command):
    buf = io.StringIO()
    rc, error = None, None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = hnnrep.cli.main(command["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        error = traceback.format_exc()
    return {"key": command["key"], "rc": rc, "error": error,
            "stdout": buf.getvalue(), "wall_s": perf_counter() - start}


def max_entry_bits(data: bytes) -> int:
    """Bit length of the largest integer written out in a JSON document."""
    import re

    runs = re.findall(rb"\d+", data)
    if not runs:
        return 0
    longest = max(len(r) for r in runs)
    return max(int(r).bit_length() for r in runs if len(r) == longest)


def describe_outputs(job, results):
    import hashlib

    for command, res in zip(job["commands"], results):
        res["bytes"] = len(res["stdout"].encode())
        if command["out"] is None:
            continue
        try:
            with open(command["out"], "rb") as fh:
                data = fh.read()
        except OSError:
            res["sha256"] = None
            continue
        res["sha256"] = hashlib.sha256(data).hexdigest()
        res["bytes"] += len(data)
        res["max_entry_bits"] = max_entry_bits(data)


def kept_counts(returns):
    """Plain counts from the kept return values."""
    out = []
    for span, value in returns:
        if span == "reps.probe":
            out.append({"span": span, "words_checked": value.words_checked,
                        "identity_count": value.identity_count})
        elif span == "splittable.build":
            out.append({"span": span, "dimension": value.dimension,
                        "m_degree": value.m_degree, "n_degree": value.n_degree,
                        "letters": len(value.letters)})
        elif span == "splittable.verify":
            out.append({"span": span, "words_checked": value.words_checked,
                        "pairs_checked": value.pairs_checked})
    return out


def ring_pools(job):
    """Operand pools from the outputs of a pool job (see workloads.pool_job)."""
    import ringbench

    pools = {"laurent": [], "qp": [], "int": [], "fraction": []}
    for command in job["commands"]:
        key, out = command["key"], command["out"]
        if key.startswith("splittable"):
            pools["fraction"] += ringbench.action_entries(out)
        elif "--integer" in key:
            pools["int"] += ringbench.rep_entries(out)
        elif "--lambda" in key:
            pools["qp"] += ringbench.rep_entries(out)
        else:
            pools["laurent"] += ringbench.rep_entries(out, generators=("y",))
    return pools


def main(argv):
    job_path, result_path, mode = argv
    with open(job_path) as fh:
        job = json.load(fh)
    for path, doc in job["files"].items():
        with open(path, "w") as fh:
            json.dump(doc, fh)
    print("ready", flush=True)
    if mode == "setup":
        print(f"calib {calibrate()!r}", flush=True)
        return 0
    calib_before = calibrate()

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer(job["job_id"], keep=KEEP)
        tracer.install()
    marks = []
    try:
        start = perf_counter()
        results = []
        for command in job["commands"]:
            marks.append(len(tracer.returns) if tracer else 0)
            results.append(run_command(command))
        job_s = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    calib_after = calibrate()

    import resource

    result = {
        "job_s": job_s,
        "calib_s": [calib_before, calib_after],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "commands": results,
    }
    describe_outputs(job, results)
    if tracer is not None:
        result["spans"] = tracer.spans
        for res, lo, hi in zip(results, marks, marks[1:] + [None]):
            res["kept"] = kept_counts(tracer.returns[lo:hi])
    if mode == "ring":
        import ringbench

        seed = job["seed"]
        result["ring"] = ringbench.ring_metrics(seed, ring_pools(job))
        result["ring"]["words.normal_form.us_per_letter"] = (
            ringbench.normal_form_us_per_letter(seed))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
