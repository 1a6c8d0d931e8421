"""Child process that runs the program in-process for the benchmark.

The benchmark's own process never imports the program: the reference kernel
runs there, between operations, while this worker is idle and watched by
the CPU guard (``host.Host``).  The worker imports the program, reports
``ready`` and then answers one JSON command per line on stdin:

* ``{"op": "load", "rows": PATH}`` -- load the datasets of a ``.npy`` file
  (shape ``(datasets, rows, 4)``) and build the first one once (warm-up);
* ``{"op": "build", "dataset": J}`` -- one timed Stellar build of dataset J;
* ``{"op": "trace"}`` -- install the per-layer span wrappers of ``layers``;
* ``{"op": "groups"}`` -- the groups of each dataset's last build;
* ``{"op": "publish", "csv": PATH, "store": DIR, "name": NAME}`` -- build
  and publish a snapshot the way ``repro`` users do;
* ``{"op": "overhead"}`` -- the raw query-observation overhead on the last
  cube (see ``layers.query_overhead_raw_us``);
* ``{"op": "quit"}``.

Every reply is one JSON line; times in replies are raw seconds.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from host import peak_rss_mb
from inputs import DIMS, digest, labels_for


def groups_of(cube) -> list:
    return [
        [sorted(g.members), g.subspace, list(g.decisive)] for g in cube.groups
    ]


class Worker:
    def __init__(self) -> None:
        self.datasets: list = []
        self.last_groups: list = []
        self.cube = None
        self.recorder = None

    def load(self, command: dict) -> dict:
        from repro.core.types import Dataset
        from repro.cube import CompressedSkylineCube

        self.datasets = [
            Dataset.from_rows(
                values.tolist(), names=tuple(DIMS), labels=labels_for(len(values))
            )
            for values in np.load(command["rows"])
        ]
        self.last_groups = [None] * len(self.datasets)
        self.cube = CompressedSkylineCube.build(self.datasets[0])
        return {}

    def build(self, command: dict) -> dict:
        from repro.core.dominance import COMPARISONS
        from repro.cube import CompressedSkylineCube

        which = command["dataset"]
        recorder = self.recorder
        op = recorder.begin() if recorder else None
        c0 = COMPARISONS.value
        t0 = time.perf_counter()
        self.cube = CompressedSkylineCube.build(self.datasets[which])
        raw = time.perf_counter() - t0
        comparisons = COMPARISONS.value - c0
        reply = {"raw": raw, "comparisons": comparisons}
        if recorder:
            op.counts["core.dominance.comparisons"] += comparisons
            recorder.end("build", op, raw)
            reply["op"] = op.to_dict()
        self.last_groups[which] = groups_of(self.cube)
        reply["digest"] = digest(self.last_groups[which])
        return reply

    def trace(self, command: dict) -> dict:
        from layers import Recorder, install_build_layers

        self.recorder = Recorder()
        install_build_layers(self.recorder)
        return {}

    def groups(self, command: dict) -> dict:
        return {"groups": self.last_groups, "peak_rss_mb": peak_rss_mb("self")}

    def publish(self, command: dict) -> dict:
        from repro.cube import CompressedSkylineCube
        from repro.data import load_csv
        from repro.serve import SnapshotStore

        t0 = time.perf_counter()
        dataset = load_csv(command["csv"])
        self.cube = CompressedSkylineCube.build(dataset)
        SnapshotStore(command["store"]).publish(command["name"], dataset, self.cube)
        raw = time.perf_counter() - t0
        return {"raw": raw, "groups": groups_of(self.cube)}

    def overhead(self, command: dict) -> dict:
        from layers import query_overhead_raw_us

        return {"raw_us": query_overhead_raw_us(self.cube)}


def main() -> int:
    import repro  # noqa: F401  (import cost belongs to start-up)

    worker = Worker()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "quit":
            break
        reply = getattr(worker, command["op"])(command)
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
