"""Regenerate ``expected.json``: per-job output digests for the first rounds
of every workload at the recorded seeds.

    python3 bench/record.py

Run it only when an output is meant to change.  A benchmark run at a
recorded seed counts every job whose digest differs from this file as
failed.  Work counts are not recorded: a faster program may do less work,
so they are checked within a run (see ``run.traced_replay``).
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

SEEDS = tuple(range(10))
# a little more than a 30-second run gets through at the baseline
ROUNDS = {"subset-scans": 5, "wide-eliminations": 12, "field-enumeration": 14}


def main() -> int:
    run.import_galekit()
    import workloads

    expected: dict = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for workload, count in ROUNDS.items():
            for seed in SEEDS:
                rounds = []
                for k in range(count):
                    res = run.run_round(workloads.build_round(workload, seed, k, workdir))
                    if res.failed:
                        print("\n".join(res.problems), file=sys.stderr)
                        return 1
                    rounds.append(res.digests)
                expected.setdefault(workload, {})[str(seed)] = rounds
                print(f"recorded {workload} seed {seed}: {count} rounds", flush=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
