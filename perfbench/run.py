"""Run one benchmark run and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fattree_admit --seed 1 --seconds 38 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs each
operation untraced and then traced on the same base seed, prints the
per-layer table and writes the spans to ``.perfbench-out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The process re-executes itself once with ``PYTHONHASHSEED`` pinned to a
value derived from ``--seed``: results do not depend on the hash seed,
but speed can, so a seed always runs under the same one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("fattree_admit", "burst_packet", "loop_packet")


def hash_seed(seed: int) -> int:
    """The ``PYTHONHASHSEED`` a run with workload seed *seed* runs under."""
    return seed % 4294967296


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    pinned = str(hash_seed(args.seed))
    if os.environ.get("PYTHONHASHSEED") != pinned:
        env = {**os.environ, "PYTHONHASHSEED": pinned}
        env.pop("REPRO_SHARD_DISPATCH", None)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import spans
    import suite

    print(f"workload={args.workload} seed={args.seed} PYTHONHASHSEED={pinned} "
          f"trace={args.trace}", flush=True)
    result = suite.measure(args.workload, args.seed, args.seconds, bool(args.trace), str(ROOT))
    table = layers.PER_LAYER if args.trace else suite.END_TO_END
    if args.trace:
        print("layer        self_s/op   share", flush=True)
        for layer, seconds, share in result.layer_rows:
            print(f"{layer:<12} {seconds:10.4f}  {share:6.1%}")
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write_spans(str(path), result.spans)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        print(f"host slowdown {result.slowdown:.4f}, median operation "
              f"{result.run_wall_s:.4f} s of wall time")
    metrics = {}
    for name, unit in table:
        value = result.metrics.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<32} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
