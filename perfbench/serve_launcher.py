"""Traced launcher for ``repro serve``.

Installs the per-layer span wrappers of :mod:`layers`, then hands over to
the program's own CLI, ``repro.cli.main(["serve", ...])``.  Spans are kept
in memory and written to the file named by the first argument when the
process receives SIGTERM.

Usage: ``python perfbench/serve_launcher.py SPANS.json serve --snapshot-dir DIR ...``
"""

from __future__ import annotations

import signal
import sys
import time


def main() -> int:
    from layers import Recorder, install_serve_layers
    from repro.cli import main as cli_main
    from repro.core.dominance import COMPARISONS
    import repro.serve.app as app_mod
    from repro.obs.metrics import registry

    spans_path = sys.argv[1]
    recorder = Recorder()
    install_serve_layers(recorder)

    service_span = recorder.wrap("serve.service", app_mod.CubeService.handle_http)

    def handle_http(self, method, path, query, body, headers=None):
        traceparent = (headers or {}).get("traceparent") or ""
        parts = traceparent.split("-")
        key = parts[1] if len(parts) == 4 else f"untraced-{time.perf_counter()}"
        op = recorder.begin()
        c0 = COMPARISONS.value
        t0 = time.perf_counter()
        try:
            return service_span(self, method, path, query, body, headers)
        finally:
            op.counts["core.dominance.comparisons"] += COMPARISONS.value - c0
            recorder.end(key, op, time.perf_counter() - t0)

    app_mod.CubeService.handle_http = handle_http

    def on_term(signum, frame):
        recorder.dump(
            spans_path,
            {"cache_evictions": registry().counter("serve.cache.evictions").value},
        )
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, on_term)
    return cli_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
