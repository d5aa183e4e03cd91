"""The 300-campaign equality check: one line per campaign, for ``cmp``.

Runs every generator profile (``repro.sim.PROFILES``) at seeds 0-29 with the
default campaign config and prints, per campaign, the profile, the seed,
whether it ran clean, its trace digest and a hash of the state it ended in.
The hash covers the catalog version; each node's state, catalog version,
subscribed shards and container names; the shared-storage object names; and
``cluster_metrics``.  Two trees that behave the same print the same bytes:

    python3 benchmarks/campaigns.py > after.txt
    (cd ../parent && python3 benchmarks/campaigns.py) > before.txt
    cmp before.txt after.txt

(``make campaigns`` runs it.)  It finds ``src/`` itself and exits 1 when a
campaign is not clean.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.sim import PROFILES, ScenarioGenerator, run_campaign  # noqa: E402

SEEDS = range(30)


def state_hash(result) -> str:
    cluster = result.world.cluster
    state = {
        "version": cluster.version,
        "nodes": [
            (
                name, node.state.value, node.catalog.state.version,
                sorted(node.catalog.subscribed_shards or ()),
                sorted(str(sid) for sid in node.catalog.state.containers),
            )
            for name, node in sorted(cluster.nodes.items())
        ],
        "objects": sorted(cluster.shared.peek()),
        "metrics": result.metrics,
    }
    text = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> int:
    unclean = 0
    for profile in PROFILES:
        for seed in SEEDS:
            result = run_campaign(seed, generator=ScenarioGenerator(seed, profile=profile))
            unclean += not result.ok
            print(
                f"{profile} {seed} {'clean' if result.ok else 'VIOLATION'} "
                f"{result.digest()} {state_hash(result)}",
                flush=True,
            )
    print(f"{len(PROFILES) * len(SEEDS)} campaigns, {unclean} not clean")
    return 1 if unclean else 0


if __name__ == "__main__":
    sys.exit(main())
