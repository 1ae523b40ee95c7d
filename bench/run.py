"""hnnrep benchmark: closed-loop CLI jobs, one child process at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): artin-build,
faithfulness-probe, splittable-inner.  Each job runs in a fresh child
process (job.py) that imports hnnrep from this checkout's `src/` and calls
`hnnrep.cli.main`; the next job starts when the previous one has ended.
Every output is checked against reference.json.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
untraced jobs for half the time, traced jobs for the rest, then the ring
micro-benchmarks, and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it holds the
environment record and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# An untraced run adds one set-up-only spawn per SETUP_EVERY_S of job time
# after each job.  Machine speed can drift within a run, so set-up samples
# are spread over the whole run rather than taken together at its start.
SETUP_EVERY_S = 3.0
JOB_TIMEOUT_S = 100  # per child process, set-up included
TAIL_BEYOND = 10  # samples a tail percentile must leave beyond it
# End-to-end times are reported at a reference machine speed: the speed at
# which job.calibrate() takes CALIB_REF_S.  Every child times that fixed
# work (after set-up, and before and after its job), and a run's times are
# scaled by CALIB_REF_S over the mean of its calibration samples.  On a
# 2-vCPU Intel Xeon VM the interpreter switched between a fast and a slow
# state (about 1.4x apart) every few seconds, in proportions that drifted
# over minutes; the mean follows the share of time spent in each state, and
# the scaling removed most of that drift from comparisons between runs.
CALIB_REF_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_min": "1/min",
    "peak_rss_mb": "MB",
}
DERIVED_UNITS = {
    "reps.probe.words_checked": "count",
    "reps.probe.identity_count": "count",
    "reps.probe.words_per_s": "1/s",
    "words.normal_form.us_per_letter": "us",
    "splittable.dimension": "count",
    "splittable.vectors_reduced": "count",
    "splittable.build.us_per_vector": "us",
    "splittable.verify.words_checked": "count",
    "splittable.tau_pair.hit_ratio": "ratio",
    "cli.output_bytes": "bytes",
    "cli.max_entry_bits": "bits",
    "trace.overhead_ratio": "ratio",
    "ring.laurent_mul_ns": "ns",
    "ring.laurent_add_ns": "ns",
    "ring.qp_mul_ns": "ns",
    "ring.qp_add_ns": "ns",
    "ring.int_mul_ns": "ns",
    "ring.fraction_mul_ns": "ns",
    "ring.fraction_add_ns": "ns",
}
SPAN_FIELDS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))


def per_layer_units():
    units = {f"{span}.{field}": unit
             for span in tracing.SPAN_NAMES for field, unit in SPAN_FIELDS}
    units.update(DERIVED_UNITS)
    return units


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile, rule_met): the highest percentile of values that
    leaves at least `beyond` samples above it.

    That percentile is 100 * (n - beyond) / n.  Below 2 * beyond samples it
    would fall under the median, which is no tail; the upper quartile is
    reported then, with percentile 75 and rule_met False.  The quartile is
    used rather than the maximum because one slow job moves the maximum of
    a few jobs by the full noise of the machine.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 2 * beyond:
        return xs[n - beyond - 1], 100.0 * (n - beyond) / n, True
    if n == 1:
        return xs[0], 75.0, False
    return statistics.quantiles(xs, n=4, method="inclusive")[2], 75.0, False


class Runner:
    """Spawns the child processes of one run inside a work directory."""

    def __init__(self, work: Path, reference):
        self.work = work
        self.reference = reference
        self.spawned = 0

    def spawn(self, job, mode):
        """Run one child; returns a record with setup_s, wall_s, the child's
        result (or None) and the list of failures."""
        self.spawned += 1
        jobdir = self.work / f"job-{self.spawned}"
        jobdir.mkdir()
        with open(jobdir / "job.json", "w") as fh:
            json.dump(job, fh)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        cmd = [sys.executable, str(BENCH / "job.py"),
               "job.json", "result.json", mode]
        rec = {"mode": mode, "job_id": job["job_id"], "setup_s": None,
               "calib_s": [], "result": None, "failures": []}
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=jobdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            readable, _, _ = select.select([proc.stdout], [], [], JOB_TIMEOUT_S)
            line = proc.stdout.readline() if readable else b""
            if line.strip() == b"ready":
                rec["setup_s"] = perf_counter() - start
            left = JOB_TIMEOUT_S - (perf_counter() - start)
            out, err = proc.communicate(timeout=max(left, 1.0))
            if out.startswith(b"calib "):
                rec["calib_s"] = [float(out.split()[1])]
        except subprocess.TimeoutExpired:
            err = b"timed out"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        rec["wall_s"] = perf_counter() - start
        if proc.returncode != 0:
            tail_text = err.decode(errors="replace")[-2000:]
            rec["failures"].append(f"exit {proc.returncode}: {tail_text}")
        elif mode != "setup":
            with open(jobdir / "result.json") as fh:
                rec["result"] = json.load(fh)
            rec["calib_s"] = rec["result"]["calib_s"]
            rec["failures"] += self.check(rec["result"])
        shutil.rmtree(jobdir)
        return rec

    def check(self, result):
        """Reasons the job's outputs differ from the reference; empty if none."""
        out = []
        for res in result["commands"]:
            key = res["key"]
            ref = self.reference.get(key)
            if ref is None:
                out.append(f"{key}: no reference")
            elif res["error"] or res["rc"] != 0:
                out.append(f"{key}: exit {res['rc']} {res['error'] or ''}")
            elif res["stdout"] != ref["stdout"]:
                out.append(f"{key}: output differs: {res['stdout']!r}")
            elif res.get("sha256") != ref["sha256"]:
                out.append(f"{key}: output file digest differs")
            elif "kept" in res and res["kept"] != ref["kept"]:
                out.append(f"{key}: counts differ: {res['kept']}")
        return out

    def loop(self, stream, mode, window, min_jobs, setups=None):
        """Closed loop: start the next job when the previous one ends, while
        another typical job still fits in the window.  With a setups list,
        set-up-only spawns of the last job are appended to it after each job."""
        records = []
        start = perf_counter()
        while True:
            job = next(stream)
            records.append(self.spawn(job, mode))
            if setups is not None:
                count = max(1, round(records[-1]["wall_s"] / SETUP_EVERY_S))
                setups += [self.spawn(job, "setup") for _ in range(count)]
            elapsed = perf_counter() - start
            typical = elapsed / len(records)
            if len(records) >= min_jobs and elapsed + typical > window:
                return records


def speed_factor(records):
    """CALIB_REF_S over the mean calibration time of the records."""
    samples = [c for r in records for c in r["calib_s"]]
    if not samples:
        raise RuntimeError("no calibration sample")
    return CALIB_REF_S / statistics.fmean(samples)


def end_to_end(runner, stream, seconds):
    setups = []
    jobs = runner.loop(stream, "run", seconds, min_jobs=2, setups=setups)
    done = [r for r in jobs if r["result"]]
    setup_samples = [r["setup_s"] for r in setups + jobs
                     if r["setup_s"] is not None]
    if not done or not setup_samples:
        raise RuntimeError("no job completed: " + "; ".join(jobs[0]["failures"]))
    factor = speed_factor(setups + jobs)
    times = [r["result"]["job_s"] for r in done]
    correct = sum(1 for r in done if not r["failures"])
    busy = sum(r["setup_s"] + r["result"]["job_s"] for r in done)
    tail_value, tail_pct, rule_met = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_samples) * factor,
        "job_s.p50": statistics.median(times) * factor,
        "job_s.tail": tail_value * factor,
        "jobs_per_min": correct / (busy * factor) * 60.0,
        "peak_rss_mb": statistics.median(
            r["result"]["rss_kb"] / 1024.0 for r in done),
    }
    details = {
        "jobs": len(jobs),
        "setup_samples": len(setup_samples),
        "job_s.tail": {"percentile": tail_pct, "jobs": len(times),
                       "rule_met": rule_met},
        "speed_factor": factor,
        "unscaled": {"setup_s": statistics.median(setup_samples),
                     "job_s": times, "busy_s": busy, "correct": correct},
    }
    return jobs, metrics, details


def job_layers(result):
    """Per-layer metrics of one traced job."""
    spans = result["spans"]
    summary = tracing.summarize(spans)
    out = {}
    for span in tracing.SPAN_NAMES:
        row = summary.get(span, {})
        for field, _unit in SPAN_FIELDS:
            out[f"{span}.{field}"] = row.get(field, 0)
    kept = [k for res in result["commands"] for k in res.get("kept", [])]
    probes = [k for k in kept if k["span"] == "reps.probe"]
    builds = [k for k in kept if k["span"] == "splittable.build"]
    verifies = [k for k in kept if k["span"] == "splittable.verify"]
    words = sum(k["words_checked"] for k in probes)
    probe_s = out["reps.probe.total_s"]
    vectors = sum(k["m_degree"] ** 2 + k["n_degree"] ** 2
                  + k["dimension"] * k["letters"] for k in builds)
    build_s = out["splittable.build.total_s"]
    out.update({
        "reps.probe.words_checked": words,
        "reps.probe.identity_count": sum(k["identity_count"] for k in probes),
        "reps.probe.words_per_s": words / probe_s if probe_s else 0.0,
        "splittable.dimension": max((k["dimension"] for k in builds), default=0),
        "splittable.vectors_reduced": vectors,
        "splittable.build.us_per_vector":
            build_s / vectors * 1e6 if vectors else 0.0,
        "splittable.verify.words_checked":
            sum(k["words_checked"] for k in verifies),
        "splittable.tau_pair.hit_ratio":
            tracing.hit_ratio(spans, "splittable.tau_pair"),
        "cli.output_bytes": sum(res["bytes"] for res in result["commands"]),
        "cli.max_entry_bits": max(
            (res.get("max_entry_bits", 0) for res in result["commands"]),
            default=0),
    })
    return out


def per_layer(runner, stream, seconds, seed):
    start = perf_counter()
    base = runner.loop(stream, "run", seconds / 2, min_jobs=1)
    traced = runner.loop(
        stream, "trace", seconds - (perf_counter() - start), min_jobs=1)
    ring = runner.spawn(workloads.pool_job(seed), "ring")
    base_times = [r["result"]["job_s"] for r in base if r["result"]]
    traced_done = [r for r in traced if r["result"]]
    if not base_times or not traced_done or not ring["result"]:
        failures = [f for r in base + traced + [ring] for f in r["failures"]]
        raise RuntimeError("no job completed: " + "; ".join(failures[:3]))
    layers = [job_layers(r["result"]) for r in traced_done]
    metrics = {name: statistics.median(job[name] for job in layers)
               for name in layers[0]}
    traced_p50 = statistics.median(r["result"]["job_s"] for r in traced_done)
    metrics["trace.overhead_ratio"] = (
        traced_p50 * speed_factor(traced) / (
            statistics.median(base_times) * speed_factor(base)))
    metrics.update(ring["result"]["ring"])
    details = {"untraced_jobs": len(base), "traced_jobs": len(traced),
               "job_s.untraced": base_times,
               "job_s.traced": [r["result"]["job_s"] for r in traced_done]}
    return base + traced + [ring], metrics, details


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """The checkout's commit read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hnnrep" / "cli.py").is_file():
        print(f"error: no hnnrep sources under {SRC}", file=sys.stderr)
        return 2
    with open(BENCH / "reference.json") as fh:
        reference = json.load(fh)
    if args.workload != "all":
        return run_workload(args, reference)
    status = 0
    for workload in workloads.WORKLOADS:
        args.workload = workload
        status = max(status, run_workload(args, reference))
    return status


def run_workload(args, reference):
    """One run of one workload; prints the details and the result line."""
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, reference)
        stream = workloads.job_stream(args.workload, args.seed)
        warm = runner.spawn(workloads.pool_job(args.seed), "setup")
        if warm["setup_s"] is None:
            print("error: a job process could not start: "
                  + "; ".join(warm["failures"]), file=sys.stderr)
            return 1
        if args.trace:
            records, metrics, details = per_layer(
                runner, stream, args.seconds, args.seed)
            units = per_layer_units()
        else:
            records, metrics, details = end_to_end(runner, stream, args.seconds)
            units = END_TO_END_UNITS
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    failures = [f for r in records for f in r["failures"]]
    failed = sum(1 for r in records if r["failures"])
    details.update(environment=environment(args),
                   failed_ratio=failed / len(records),
                   failures=failures[:10])
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
