"""The repository benchmark: one command, three workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the same operations untraced and then traced and reports per-layer self
times.  Each workload runs in its own process, so its set-up time and peak
memory are its own; ``all`` runs the three in turn as child processes.
The last line of standard output is one JSON object with the result.
The metric definitions, workloads and bounds live in BENCHMARK.json; the
layer map and workload sizes in perfbench/spec.json.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-queries", "serve-mixed", "sharded-chaos")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a child process; then the named metrics together."""
    named = []
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        named += [(workload, line.split()[1:]) for line in proc.stdout.splitlines()
                  if line.startswith("named ")]
    print("== end-to-end metrics by name")
    for workload, (name, value, unit, *note) in named:
        print(f"{workload:14s} {name:16s} {value:>14s} {unit} {' '.join(note)}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import common
    import layers
    import paper_queries
    import serve_mixed
    import sharded_chaos

    module = {"paper-queries": paper_queries, "serve-mixed": serve_mixed,
              "sharded-chaos": sharded_chaos}[args.workload]
    if args.trace:
        outcome, recorder, measured = module.run(
            args.seed, args.seconds, trace=True)
        metrics = layers.finish(recorder, args.workload, args.seed, measured)
        common.emit(outcome, metrics, "per_layer")
    else:
        outcome, metrics = module.run(args.seed, args.seconds, trace=False)
        for name in ("setup_s", "peak_rss_mb"):
            unit = "s" if name == "setup_s" else "MB"
            print(f"named {name} {metrics[name]:.4f} {unit}")
        print(f"named failed_frac {outcome.failed_frac:.6f} share")
        common.emit(outcome, metrics, "end_to_end")
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
