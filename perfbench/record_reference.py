"""Record n, m and digests of every benchmark input for a range of seeds.

    python3 perfbench/record_reference.py FIRST_SEED STOP_SEED

rewrites reference.json.  run.py fails any operation whose input or
coarsen artifacts differ from this table, which is how it enforces
byte-identical CLI artifacts across commits.  Re-record only on purpose:
when a generator or the artifact format is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    first, stop = (int(arg) for arg in sys.argv[1:3])
    table: dict[str, dict[str, dict]] = {}
    work = run.WORK / "record"
    for seed in range(first, stop):
        for workload in run.WORKLOADS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            bench = run.Bench(workload, seed, work)
            bench.recorded = {}
            bench.set_up()
            if bench.ops.failed:
                print("\n".join(bench.ops.problems), file=sys.stderr)
                return 1
            for name, info in bench.refs.items():
                table.setdefault(name, {})[str(seed)] = info
        print(f"seed {seed} recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(table, indent=1, sort_keys=True)
    run.REFERENCE.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
