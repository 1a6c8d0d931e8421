"""CI smoke test for the query-serving subsystem (repro.serve).

Publishes a cube into a snapshot store, starts the HTTP service with a
deliberately tiny admission budget, and drives it as a plain HTTP client
through the three behaviours the serving layer must exhibit:

1. a **cold** query (cache miss, computed from the cube);
2. the same query **warm** (served from the result cache);
3. a request while the only concurrency slot is held (typed **shed**,
   HTTP 503 with ``Retry-After``).

All three travel over one persistent HTTP/1.1 connection, and the smoke
asserts it connected once: a server that fell back to closing the
connection after every reply fails here.

The ``/metrics`` scrape is then asserted to carry the matching
``repro_serve_cache_hits_total`` and ``repro_serve_shed_total`` counters
and written next to the results so CI archives a real scrape of the
serving stack.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py [--out DIR]

Exit status 0 on success, 1 on any contract violation.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import tempfile
from pathlib import Path
from urllib.request import urlopen

from repro import Dataset
from repro.cube import CompressedSkylineCube
from repro.serve import (
    AdmissionController,
    CubeService,
    SnapshotStore,
    start_server,
)


def build_catalog() -> Dataset:
    """The flight-route catalogue (see examples/flight_tickets.py)."""
    rows = [
        [980.0, 14.5, 1],
        [720.0, 18.0, 2],
        [980.0, 16.0, 1],
        [1450.0, 12.0, 0],
        [720.0, 21.5, 3],
        [860.0, 14.5, 1],
        [1450.0, 13.0, 1],
        [990.0, 18.0, 2],
    ]
    labels = (
        "LH-FRA",
        "BUDGET-LHR",
        "KL-AMS",
        "DIRECT",
        "MULTIHOP",
        "TK-YVR",
        "PREMIUM",
        "SLOW-EXPENSIVE",
    )
    return Dataset.from_rows(
        rows,
        names=("price", "traveltime", "stops"),
        directions=("min", "min", "min"),
        labels=labels,
    )


class CountingConnection(http.client.HTTPConnection):
    """An HTTP/1.1 client connection that counts how often it connected."""

    connects = 0

    def connect(self) -> None:
        self.connects += 1
        super().connect()


def get_json(conn: http.client.HTTPConnection, path: str) -> tuple[int, dict]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def metric_value(scrape: str, name: str) -> float:
    """The value of an unlabelled series in a Prometheus exposition."""
    for line in scrape.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"[serve-smoke] FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"[serve-smoke] ok: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="smoke-results",
        help="directory for the archived /metrics scrape",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    dataset = build_catalog()
    cube = CompressedSkylineCube.build(dataset)
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        store = SnapshotStore(Path(tmp) / "snapshots")
        info = store.publish("routes", dataset, cube)
        check(info.version == "v000001", f"published routes@{info.version}")

        # One slot, no queue: the shed below is deterministic.
        service = CubeService(
            store,
            admission=AdmissionController(max_concurrency=1, queue_limit=0),
            reload_interval=0,
        )
        with start_server(service) as server:
            conn = CountingConnection("127.0.0.1", server.port, timeout=10)
            url = "/v1/skyline?subspace=price,stops"

            status, body = get_json(conn, url)
            check(
                status == 200 and body["cached"] is False,
                f"cold query computed (cube_version {body['cube_version']})",
            )
            check(
                body["result"] == ["BUDGET-LHR", "DIRECT", "TK-YVR"],
                "cold query answer is the price,stops skyline",
            )

            status, body = get_json(conn, url)
            check(
                status == 200 and body["cached"] is True,
                "warm query served from the result cache",
            )

            # Hold the single concurrency slot, then knock: the request
            # must be shed with a typed 503, not queued or served.
            with service.admission.admit():
                status, body = get_json(conn, url)
            check(
                status == 503 and body.get("error") == "overloaded",
                f"saturated request shed (reason {body.get('reason')!r})",
            )
            check(
                conn.connects == 1,
                f"three queries over {conn.connects} connection(s), want 1",
            )
            conn.close()

            with urlopen(f"{server.url}/metrics", timeout=10) as response:
                scrape = response.read().decode()

        hits = metric_value(scrape, "repro_serve_cache_hits_total")
        shed = metric_value(scrape, "repro_serve_shed_total")
        check(hits >= 1, f"repro_serve_cache_hits_total = {hits:g}")
        check(shed >= 1, f"repro_serve_shed_total = {shed:g}")
        check(
            metric_value(scrape, "repro_serve_requests_total") >= 2,
            "request counter advanced",
        )

    scrape_path = out / "serve_scrape.txt"
    scrape_path.write_text(scrape)
    print(f"[serve-smoke] scrape written to {scrape_path}")
    print("[serve-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
