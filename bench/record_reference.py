"""Record the reference outputs the benchmark checks every job against.

    python3 bench/record_reference.py

Runs every CLI call the workloads' parameter sets can produce once, under
the span tracer so that the counts the CLI does not print (such as the
number of homomorphism pairs) are kept too, and writes `reference.json`
next to this file: per reference key the standard output, the SHA-256 of
the output file and the kept counts.  Run it only on a commit whose outputs
are known to be right; the file is the correctness gate for every later
commit.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import job  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main():
    work = ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    reference = {}
    for files, command in workloads.all_reference_commands():
        for path, doc in files.items():
            with open(path, "w") as fh:
                json.dump(doc, fh)
        with tracing.Tracer(keep=job.KEEP) as tracer:
            res = job.run_command(command)
        job.describe_outputs({"commands": [command]}, [res])
        if res["rc"] != 0 or res["error"]:
            raise SystemExit(f"{command['key']} failed: {res}")
        reference[command["key"]] = {
            "stdout": res["stdout"],
            "sha256": res.get("sha256"),
            "kept": job.kept_counts(tracer.returns),
        }
        print(f"{res['wall_s']:7.2f}s  {command['key']}", flush=True)
    os.chdir(ROOT)
    shutil.rmtree(work)
    with open(BENCH / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
