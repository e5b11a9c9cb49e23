"""Record the repository benchmark's runs as one trajectory file.

Runs every workload of ``perfbench/run.py`` once untraced (``--trace 0``,
the end-to-end metrics) and once traced (``--trace 1``, the per-layer
metrics), and writes ``BENCH_<yyyymmdd>_PR<n>.json`` at the root of the
checkout: each run's last stdout line — its JSON summary — unchanged,
plus the commit (and whether the tree had uncommitted changes), the
date and the host (CPUs, Python, NumPy).  When any run is not
``correct``, or exits non-zero, nothing is written and the exit status
is 1.

Usage, from the root of a checkout (``make bench-record PR=<n>``)::

    python benchmarks/record_perfbench.py --pr 16
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flat-large", "serve-flashcrowd", "resilience-composed")


def _run(workload: str, trace: int) -> dict:
    """One perfbench run; its JSON summary, with the command line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)]
    print("$", " ".join(cmd[1:]), flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    return {
        "workload": workload,
        "trace": trace,
        "command": "python3 " + " ".join(cmd[1:]),
        "exit_status": proc.returncode,
        "result": summary,
    }


def _host() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the change's number")
    args = parser.parse_args(argv)
    if args.pr < 0:
        parser.error("--pr must be >= 0")

    now = dt.datetime.now(dt.timezone.utc)
    runs = [_run(w, trace) for w in WORKLOADS for trace in (0, 1)]
    bad = [
        f"{r['workload']} --trace {r['trace']}"
        for r in runs
        if r["exit_status"] != 0 or r["result"].get("correct") is not True
    ]
    if bad:
        print(f"bench-record: not correct: {', '.join(bad)}; nothing written",
              file=sys.stderr)
        return 1
    doc = {
        "kind": "repro-perfbench-record",
        "pr": args.pr,
        "commit": _git("rev-parse", "HEAD"),
        # True when the runs measured uncommitted changes on that commit.
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "date": now.isoformat(timespec="seconds"),
        "host": _host(),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{now:%Y%m%d}_PR{args.pr}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
