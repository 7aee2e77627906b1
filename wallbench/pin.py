"""Pin the virtual-output digests the benchmark checks runs against.

Run from the repository root, only when a change is *meant* to alter
what the simulator computes:

    PYTHONPATH=src python3 wallbench/pin.py directed-oracle 1 2 3

Runs one episode per seed and writes its digest into
``wallbench/digests.json``, keeping the other entries.
"""

from __future__ import annotations

import json
import sys

from measure import PINNED, run_episode

import workloads


def main(argv: list[str]) -> int:
    name, *seeds = argv
    if name not in workloads.WORKLOADS or not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    entries = pinned.setdefault(name, {})
    for seed in seeds:
        episode = run_episode(name, int(seed))
        entries[str(int(seed))] = episode["digest"]
        print(f"{name} seed {seed}: {episode['digest']}")
    pinned[name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
