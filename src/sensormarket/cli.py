"""Scenario runner command line.

Exit codes are a stable CI contract: 0 all assertions pass, 1 assertion
failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .errors import ParseError, SensorMarketError
from .scenario import ScenarioRun, load_scenario


def bundled_scenarios() -> dict[str, Path]:
    root = resources.files("sensormarket") / "scenarios"
    return {p.name.removesuffix(".json"): Path(str(p))
            for p in sorted(root.iterdir()) if p.name.endswith(".json")}


def _resolve_scenario(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    bundled = bundled_scenarios().get(arg)
    if bundled is not None:
        return bundled
    raise ParseError(f"no such scenario file or bundled scenario: {arg}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sensormarket", description="Run sensor-market ledger scenarios."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario file, or a bundled name")
    run_p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    run_p.add_argument("--report", type=Path, default=None,
                       help="write the JSON report here instead of stdout")
    run_p.add_argument("--dump-chain", type=Path, default=None,
                       help="write a line-delimited chain dump")
    run_p.add_argument("--dump-registry", type=Path, default=None,
                       help="write the registry index as JSON")

    sub.add_parser("list-scenarios", help="list bundled scenarios")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "list-scenarios":
        for name in bundled_scenarios():
            print(name)
        return 0

    try:
        run = ScenarioRun(load_scenario(_resolve_scenario(args.scenario), args.seed))
        report = run.execute()
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SensorMarketError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(report, indent=2, sort_keys=True)
    try:
        if args.report is not None:
            args.report.write_text(text + "\n")
        else:
            print(text)
        if args.dump_chain is not None:
            args.dump_chain.write_text(run.dump_chain())
        if args.dump_registry is not None:
            args.dump_registry.write_text(run.dump_registry())
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2

    failed = [r for r in report["assertions"] if not r["ok"]]
    for result in report["assertions"]:
        status = "ok" if result["ok"] else "FAILED"
        print(f"assert {result['path']}: {status} (actual={result['actual']!r})",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
