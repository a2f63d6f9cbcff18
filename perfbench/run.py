"""pqsbfl benchmark: runs workloads, checks their outputs, prints metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload pqc-signed-fleet --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in its own process so
that its peak memory is its own. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` makes a separate traced run and prints the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` next to this directory, never from an installed copy.
The exit code is 0 only when every output check passed. A run record and,
for traced runs, the spans are written under ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def git_commit():
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SOURCE / "pqsbfl").rglob("*.py")):
        h.update(path.relative_to(SOURCE).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(workload, seed: int, trace: int) -> dict:
    import cryptography
    import numpy
    from cryptography.hazmat.backends.openssl import backend

    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "config": workload.config(seed).to_dict(),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def metric_names(trace: int) -> list:
    """The metrics the result line carries, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed: int, seconds: float, trace: int):
    """Measure one workload, print its report and return its result line."""
    import measure

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    print(f"== {workload.name}")
    if trace:
        result = measure.measure_traced(workload, seed, OUT / f"{stem}-spans.jsonl")
    else:
        result = measure.measure(workload, seed, seconds)
    record = run_record(workload, seed, trace)
    record["pool_threads"] = measure.pool_threads(workload.config(seed))
    print("run record: " + json.dumps(record, sort_keys=True))
    (OUT / f"{stem}.json").write_text(
        json.dumps({"record": record, "notes": result.notes, "failures": result.outcome.failures,
                    "metrics": result.metrics, "round_ms": result.round_ms}, indent=1)
    )
    names = metric_names(trace)
    for line in result.notes:
        print(line)
    for failure in result.outcome.failures:
        print(f"FAILED: {failure}")
    for name, (value, unit) in result.metrics.items():
        gated = "" if name in names else "  (reported only)"
        print(f"{name:>36} = {value:.6g} {unit}{gated}")
    return result.to_json(names)


def run_apart(workload, args) -> dict:
    """Run one workload in a child process, pass its report through and
    return its result line."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"FAILED: {workload.name} exited with code {done.returncode} and no result")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def combine(parts: dict) -> dict:
    """One result line over several workloads; metric names get the
    workload name as a prefix."""
    return {
        "correct": all(p["correct"] for p in parts.values()),
        "attempted": sum(p["attempted"] for p in parts.values()),
        "failed": sum(p["failed"] for p in parts.values()),
        "metrics": {f"{name}.{k}": v for name, p in parts.items() for k, v in p["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "pqsbfl" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2

    if len(chosen) > 1:
        summary = combine({w.name: run_apart(w, args) for w in chosen})
    else:
        summary = run_one(chosen[0], args.seed, args.seconds, args.trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
