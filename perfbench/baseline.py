"""Measure every workload once, untraced and traced, and record the numbers.

    python3 perfbench/baseline.py [--seed 1] [--seconds 30] [--output FILE]

Runs ``run.py`` for each workload with ``--trace 0`` and then ``--trace 1``,
prints every end-to-end metric (median, quartiles, sample count), each
workload's report digests and the per-layer table, and writes all of it as
JSON (by default to ``perfbench/baseline.json``).  Exits 1 if any run
failed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run ``run.py`` once and return the record it wrote.

    An earlier run's record is deleted first, so a run that writes none
    gives a failed entry, never a stale one.
    """
    path = run.OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    if not path.is_file():
        return {
            "workload": workload, "seed": seed, "trace": trace, "correct": False,
            "exit_code": proc.returncode, "attempted_ops": 0, "failed_ops": 0,
            "digests": {}, "metrics": {}, "problems": ["run.py wrote no record"],
        }
    record = json.loads(path.read_text())
    record["exit_code"] = proc.returncode
    for metric in record["metrics"].values():
        del metric["values"]  # the summary is kept; the samples stay in out/
    return record


def host() -> dict:
    try:
        import cryptography
        crypto_version = cryptography.__version__
    except ImportError:
        crypto_version = None
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "cryptography": crypto_version,
    }


def cell(m: dict | None) -> str:
    if m is None:
        return "-"
    return f"{m['median']:.5g} [{m['q1']:.4g}..{m['q3']:.4g}] n={m['n']}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--output", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    results = {}
    for workload in run.WORKLOADS:
        print(f"measuring {workload} ...", file=sys.stderr, flush=True)
        results[workload] = {
            "end_to_end": measure(workload, args.seed, args.seconds, 0),
            "per_layer": measure(workload, args.seed, args.seconds, 1),
        }

    names = list(dict.fromkeys(
        name for r in results.values() for name in r["end_to_end"]["metrics"]
    ))
    print(f"{'end-to-end metric':30s} {'unit':9s} " + " ".join(f"{w:38s}" for w in results))
    for name in names:
        unit = next(r["end_to_end"]["metrics"][name]["unit"]
                    for r in results.values() if name in r["end_to_end"]["metrics"])
        print(f"{name:30s} {unit:9s} " + " ".join(
            f"{cell(r['end_to_end']['metrics'].get(name)):38s}" for r in results.values()))
    print()
    for workload, r in results.items():
        e2e = r["end_to_end"]
        print(f"{workload}: correct={e2e['correct']} failed_ops={e2e['failed_ops']}"
              f"/{e2e['attempted_ops']}")
        for doc, digest in e2e["digests"].items():
            print(f"  digest {doc} {digest}")
    print()
    print(f"{'per-layer metric':40s} {'unit':6s} " + " ".join(f"{w:>16s}" for w in results))
    for name, unit in run.per_layer_units():
        print(f"{name:40s} {unit:6s} " + " ".join(
            f"{r['per_layer']['metrics'][name]['median']:16.6g}"
            if name in r["per_layer"]["metrics"] else f"{'-':>16s}"
            for r in results.values()))

    ok = all(r[k]["correct"] and r[k]["exit_code"] == 0
             for r in results.values() for k in r)
    args.output.write_text(json.dumps({
        "command": f"python3 perfbench/baseline.py --seed {args.seed} --seconds {args.seconds:g}",
        "host": host(),
        "correct": ok,
        "workloads": results,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
