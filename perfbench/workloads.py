"""The three workloads: set-up, timed loop, correctness checks, metrics.

Each runner returns an :class:`Outcome`.  Times are converted to reference
speed with the bracketing reference-kernel runs (``Host.scale``); raw values
are kept as diagnostics.  This process never imports the program: builds
and publishing run in the worker child (``worker.py``), serving in the
``repro serve`` child, and the reference kernel runs here while both are
idle.
"""

from __future__ import annotations

import json
import re
import selectors
import shutil
import statistics
from pathlib import Path

import numpy as np

import inputs
import oracle
from client import REQUEST_ERRORS, Client, Response
from host import GUARD_LIMIT, Host, now, peak_rss_mb, spawn, stop
from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: build-anti: datasets per run, built in turn.  Skyline size (and so build
#: cost) varies by ~10 % from one 3,000-row sample to the next; pooling four
#: samples halves that sampling noise in the run-to-run spread.
BUILD_DATASETS = 4
#: serve-read / serve-write: closed-loop window between reference runs (s).
WINDOW = 1.0
#: serve-write: cycles of eight writes in the script; the run goes round
#: it as often as it needs (every cycle returns to the base data).
WRITE_CYCLES = 64
#: The result cache's capacity in the program's documented defaults.
CACHE_ENTRIES = 1024
SNAPSHOT = "bench"

# -- results ------------------------------------------------------------------

#: Named workload figures and their units.
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "build_p50_ms": "ms",
    "builds_per_s": "1/s",
    "read_p50_ms": "ms",
    "reads_per_s": "1/s",
    "read_p90_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "writes_per_s": "1/s",
}

#: The end-to-end metrics every workload reports (``BENCHMARK.json``).
E2E = {"setup_s": "s", "peak_rss_mb": "MiB", "op_p50_ms": "ms", "ops_per_s": "1/s"}
#: Which named figure fills the ``op`` metrics: the workload's timed
#: operation is a build, a read, or a write.
OP_FIGURES = {
    "build-anti": {"op_p50_ms": "build_p50_ms", "ops_per_s": "builds_per_s"},
    "serve-read": {"op_p50_ms": "read_p50_ms", "ops_per_s": "reads_per_s"},
    "serve-write": {"op_p50_ms": "write_p50_ms", "ops_per_s": "writes_per_s"},
}


class Outcome:
    """Everything one run reports."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.table: list[tuple[str, float, float]] = []
        self.diagnostics: dict[str, object] = {}

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def result(self, trace: int) -> dict:
        if trace:
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.layers.items()
            }
        else:
            figures = OP_FIGURES[self.workload]
            metrics = {
                name: {"value": self.e2e[figures.get(name, name)], "unit": unit}
                for name, unit in E2E.items()
            }
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def print_report(self, args) -> None:
        print(f"perfbench {self.workload} seed={args.seed} seconds={args.seconds:g}")
        for name, value in self.e2e.items():
            speed = "" if name == "peak_rss_mb" else " @ref"
            print(f"  {name:<16} {value:12.4f} {UNITS[name]}{speed}")
        for name, value in sorted(self.diagnostics.items()):
            print(f"  diag {name} = {value}")
        if self.table:
            print(f"  per-layer self time ({self.workload}, traced, ms per op @ref)")
            for layer, ms, share in self.table:
                print(f"    {layer:<18} {ms:10.4f} ms {share:7.2%}")
        for name, (value, unit) in self.layers.items():
            print(f"  layer {name} = {value:.6g} {unit}")
        for problem in self.problems:
            print(f"  PROBLEM {problem}")
        print(f"  attempted={self.attempted} failed={self.failed}")


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def trace_id(seed: int, serial: int) -> str:
    return f"{seed + 1:016x}{serial + 1:016x}"


def finish_guard(out: Outcome, host: Host) -> None:
    share = host.guard_share()
    out.diagnostics["guard_program_cpu_share"] = round(share, 4)
    out.diagnostics["host_ref_ms"] = round(statistics.median(host.refs) * 1e3, 3)
    if share > GUARD_LIMIT:
        out.problems.append(
            f"the program used {share:.1%} CPU while the reference ran "
            f"(limit {GUARD_LIMIT:.0%})"
        )


def layer_table(out: Outcome, ops: list[tuple[dict, float, float]]) -> None:
    """Per-layer self time per operation from ``(op, e2e_raw, scale)``.

    ``op`` carries the self times of the spans of one operation; what they
    do not cover of its end-to-end time is ``unattributed``.
    """
    n = len(ops)
    totals = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    e2e = 0.0
    for op, raw, scale in ops:
        covered = 0.0
        for layer, seconds in op["self"].items():
            totals[layer] += seconds * scale
            covered += seconds
        unattributed += (raw - covered) * scale
        e2e += raw * scale
    rows = [(layer, totals[layer] / n * 1e3) for layer in LAYERS]
    rows.append(("unattributed", unattributed / n * 1e3))
    out.table = [(layer, ms, ms / (e2e / n * 1e3)) for layer, ms in rows]
    out.diagnostics["traced_e2e_ms_per_op"] = round(e2e / n * 1e3, 4)
    out.diagnostics["table_sum_over_e2e"] = round(
        sum(ms for _, ms in rows) / (e2e / n * 1e3), 4
    )
    for layer, ms in rows:
        out.layers[LAYER_METRIC.get(layer, f"{layer}.seconds")] = (ms / 1e3, "s")


#: Layers whose time metric is not named ``<layer>.seconds``.
LAYER_METRIC = {
    "serve.service": "serve.service.self_seconds",
    "serve.query": "serve.query.self_seconds",
    "serve.admission": "serve.admission.wait_seconds",
}


def count_total(ops: list[dict], key: str) -> float:
    return sum(op["counts"].get(key, 0) for op in ops)


def add_count_layers(
    out: Outcome, ops: list[dict], writes: int = 0, cache_evictions: int = 0
) -> None:
    """The per-layer work counts and ratios, averaged per operation
    (``wal.appends`` per write)."""
    n = max(len(ops), 1)
    misses = count_total(ops, "cube.query.misses")
    cgroups = count_total(ops, "core.cgroups.count")
    maint = sum(op["calls"].get("cube.maintenance", 0) for op in ops)
    appends = sum(op["calls"].get("wal.append", 0) for op in ops)
    gets = count_total(ops, "serve.cache.gets")
    store_calls = sum(op["calls"].get("serve.store", 0) for op in ops)
    per = {
        "skyline.seeds": (count_total(ops, "skyline.seeds") / n, "count"),
        "core.dominance.comparisons": (
            count_total(ops, "core.dominance.comparisons") / n,
            "count",
        ),
        "core.cgroups.count": (cgroups / n, "count"),
        "core.seeds.kept_ratio": (
            count_total(ops, "core.seeds.groups") / cgroups if cgroups else 0.0,
            "ratio",
        ),
        "core.extension.groups": (count_total(ops, "core.extension.groups") / n, "count"),
        "cube.query.groups_considered": (
            count_total(ops, "cube.query.groups_considered") / misses if misses else 0.0,
            "count",
        ),
        "cube.query.interval_checks": (
            count_total(ops, "cube.query.interval_checks") / misses if misses else 0.0,
            "count",
        ),
        "cube.maintenance.fast_ratio": (
            count_total(ops, "cube.maintenance.fast") / maint if maint else 0.0,
            "ratio",
        ),
        "wal.appends": (appends / writes if writes else 0.0, "count"),
        "wal.bytes_per_write": (
            count_total(ops, "wal.bytes") / appends if appends else 0.0,
            "B",
        ),
        "serve.store.calls_per_request": (store_calls / n, "count"),
        "serve.cache.hit_ratio": (
            count_total(ops, "serve.cache.hits") / gets if gets else 0.0,
            "ratio",
        ),
        "serve.cache.evictions": (float(cache_evictions), "count"),
    }
    out.layers.update(per)


# -- the program worker -------------------------------------------------------


class ProgramWorker:
    """The ``worker.py`` child; the host's guard watches it while it idles."""

    def __init__(self, host: Host, work: Path):
        self.host = host
        self.proc = spawn([str(HERE / "worker.py")], ROOT, work)
        if not self.proc.stdout.readline():
            stop(self.proc)
            raise RuntimeError("the program worker failed to start")
        host.watch(self.proc.pid)

    def ask(self, command: dict) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the program worker exited")
        return json.loads(line)

    def timed(self, command: dict) -> tuple[dict, float]:
        """``ask`` bracketed by the reference: the reply and its scale."""
        r0 = self.host.ref()
        reply = self.ask(command)
        return reply, Host.scale(r0, self.host.ref())

    def close(self) -> None:
        self.host.unwatch(self.proc.pid)
        try:
            self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
            self.proc.stdin.flush()
            self.proc.wait(timeout=30)
        except (BrokenPipeError, OSError):
            pass
        finally:
            stop(self.proc)


class _Group:
    __slots__ = ("members", "subspace", "decisive")

    def __init__(self, members, subspace, decisive):
        self.members = frozenset(members)
        self.subspace = subspace
        self.decisive = tuple(decisive)


# -- build-anti ---------------------------------------------------------------


def run_build_anti(args, work: Path) -> Outcome:
    out = Outcome("build-anti")
    rng = np.random.default_rng(args.seed)
    datasets = [inputs.anticorrelated(3000, rng) for _ in range(BUILD_DATASETS)]
    rows = work / "rows.npy"
    np.save(rows, np.stack(datasets))
    out.diagnostics["rows_digest"] = inputs.digest(*datasets)
    host = Host()

    # Set-up: spawn, import, load the rows and build the first dataset once.
    setups, raw_setups = [], []
    worker = None
    for i in range(SETUP_REPEATS):
        r0 = host.ref()
        t0 = now()
        worker = ProgramWorker(host, work)
        try:
            worker.ask({"op": "load", "rows": str(rows)})
        except BaseException:
            worker.close()
            raise
        t1 = now()
        r1 = host.ref()
        raw_setups.append(t1 - t0)
        setups.append((t1 - t0) * Host.scale(r0, r1))
        if i < SETUP_REPEATS - 1:
            worker.close()
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        timed = _timed_builds(worker, host, seconds)
        traced = []
        if args.trace:
            worker.ask({"op": "trace"})
            traced = _timed_builds(worker, host, seconds)
            overhead, scale = worker.timed({"op": "overhead"})
            out.layers["obs.query_overhead_us"] = (overhead["raw_us"] * scale, "us")
        final = worker.ask({"op": "groups"})
    finally:
        worker.close()

    # The end-to-end figures always come from untraced builds.
    builds = timed + traced
    scaled = [b["raw"] * b["scale"] for b in timed]
    out.attempted = len(builds)

    # Correctness (outside the timed region): every build of a dataset
    # equals its last one, and that equals brute-force subspace skylines.
    reference = {b["dataset"]: b["digest"] for b in builds}
    for i, b in enumerate(builds):
        if b["digest"] != reference[b["dataset"]]:
            out.fail(f"build {i} produced different groups")
    n_groups = []
    for j, (values, last) in enumerate(zip(datasets, final["groups"])):
        groups = [_Group(*g) for g in last]
        n_groups.append(len(groups))
        problems = oracle.check_groups(values, groups, oracle.all_skylines(values))
        if problems:
            builds_of_j = sum(b["dataset"] == j for b in builds)
            out.fail(f"groups of dataset {j} disagree with the oracle: {problems[0]}", builds_of_j)

    out.e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": final["peak_rss_mb"],
        "build_p50_ms": statistics.median(scaled) * 1e3,
        "builds_per_s": len(scaled) / sum(scaled),
    }
    comparisons = [
        sorted({b["comparisons"] for b in builds if b["dataset"] == j})
        for j in range(BUILD_DATASETS)
    ]
    out.diagnostics.update(
        {
            "builds": len(scaled),
            "raw_build_p50_ms": round(statistics.median(b["raw"] for b in timed) * 1e3, 3),
            "raw_builds_per_s": round(len(scaled) / sum(b["raw"] for b in timed), 4),
            "raw_setup_s": round(statistics.median(raw_setups), 4),
            "groups": n_groups,
            "dominance_comparisons_per_build": comparisons,
        }
    )
    finish_guard(out, host)
    if args.trace:
        _build_layers(out, timed, traced)
    return out


def _timed_builds(worker: ProgramWorker, host: Host, seconds: float) -> list[dict]:
    """Builds cycling through the datasets, one per round trip, each
    bracketed by reference runs made while the worker idles."""
    builds: list[dict] = []
    busy = 0.0
    r_before = host.ref()
    while busy < seconds or len(builds) < 2 * BUILD_DATASETS:
        which = len(builds) % BUILD_DATASETS
        build = worker.ask({"op": "build", "dataset": which})
        r_after = host.ref()
        build.update(dataset=which, scale=Host.scale(r_before, r_after))
        builds.append(build)
        busy += build["raw"]
        r_before = r_after
    return builds


def _build_layers(out: Outcome, untraced: list[dict], traced: list[dict]) -> None:
    ops = [b["op"] for b in traced]
    layer_table(out, [(b["op"], b["raw"], b["scale"]) for b in traced])
    # Whole rounds over the datasets only, so the counts depend on the seed
    # alone and not on how many builds fitted in the run.
    add_count_layers(out, ops[: len(ops) - len(ops) % BUILD_DATASETS])
    plain = [b["raw"] * b["scale"] for b in untraced]
    with_spans = [b["raw"] * b["scale"] for b in traced]
    out.diagnostics["tracing_overhead_ms"] = round(
        (statistics.median(with_spans) - statistics.median(plain)) * 1e3, 3
    )


# -- serving: shared set-up ---------------------------------------------------


class Server:
    """One ``repro serve`` child (or the traced launcher) over the store."""

    def __init__(self, host: Host, work: Path, store: Path, spans: Path | None = None):
        serve_args = ["serve", "--snapshot-dir", str(store), "--port", "0"]
        if spans is None:
            argv = ["-m", "repro", *serve_args]
        else:
            argv = [str(HERE / "serve_launcher.py"), str(spans), *serve_args]
        self.host = host
        r0 = host.ref()
        t0 = now()
        self.proc = spawn(argv, ROOT, work)
        try:
            port = self._await_port()
            self.port = port
            probe = Client("127.0.0.1", port)
            # A long budget: the first request activates the snapshot and
            # replays the WAL, and set-up is timed until it answers 200.
            response = probe.request(
                "GET",
                "/v1/skyline?subspace=A&deadline_ms=120000",
                trace_id(0, 10**9),
            )
            probe.close()
            if response.status != 200:
                raise RuntimeError(f"first request answered {response.status}")
        except BaseException:
            stop(self.proc)
            raise
        t1 = now()
        host.watch(self.proc.pid)
        r1 = host.ref()
        self.raw_setup = t1 - t0
        self.setup = self.raw_setup * Host.scale(r0, r1)

    def _await_port(self) -> int:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("repro serve exited before listening")
            match = re.search(r"serving at http://[\d.]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        self.host.unwatch(self.proc.pid)
        stop(self.proc)


def publish(out: Outcome, host: Host, values: np.ndarray, work: Path, trace: int):
    """Build and publish the snapshot in the worker (outside set-up).

    Returns the store, the published groups and the labels; with ``trace``
    also measures ``obs.query_overhead_us`` on the published cube.
    """
    labels = inputs.labels_for(len(values))
    csv_path = work / "dataset.csv"
    csv_path.write_text(inputs.csv_text(values, labels))
    store = work / "store"
    worker = ProgramWorker(host, work)
    try:
        reply, scale = worker.timed(
            {"op": "publish", "csv": str(csv_path), "store": str(store), "name": SNAPSHOT}
        )
        if trace:
            overhead, o_scale = worker.timed({"op": "overhead"})
            out.layers["obs.query_overhead_us"] = (overhead["raw_us"] * o_scale, "us")
    finally:
        worker.close()
    out.diagnostics["publish_s"] = round(reply["raw"] * scale, 4)
    out.diagnostics["rows_digest"] = inputs.digest(values)
    out.diagnostics["groups"] = len(reply["groups"])
    return store, [_Group(*g) for g in reply["groups"]], labels


def cold_starts(out: Outcome, host: Host, work: Path, store: Path) -> Server:
    """``SETUP_REPEATS`` cold starts; the last server stays up."""
    setups, raws = [], []
    server = None
    for i in range(SETUP_REPEATS):
        server = Server(host, work, store)
        setups.append(server.setup)
        raws.append(server.raw_setup)
        if i < SETUP_REPEATS - 1:
            server.close()
    out.e2e["setup_s"] = statistics.median(setups)
    out.diagnostics["raw_setup_s"] = round(statistics.median(raws), 4)
    return server


def server_layers(
    out: Outcome,
    requests: list[tuple[str, float, float, int]],
    spans: Path,
    writes: int = 0,
) -> None:
    """Join client round trips with the server's spans by trace id.

    ``serve.http`` is the round trip minus the server's ``handle_http``
    time: connection set-up, HTTP parsing, JSON encoding, socket writes and
    the client itself.
    """
    dump = json.loads(spans.read_text())
    joined = []
    ops = []
    for tid, rtt, scale in requests:
        op = dump["ops"].get(tid)
        if op is None:
            joined.append(({"self": {}}, rtt, scale))
            continue
        self_s = dict(op["self"])
        self_s["serve.http"] = rtt - op["total"]
        joined.append(({"self": self_s}, rtt, scale))
        ops.append(op)
    layer_table(out, joined)
    add_count_layers(out, ops, writes, dump.get("cache_evictions", 0))
    # The snapshot loads during the cold start's first request, which the
    # table does not include: report it per server start instead.
    scale = statistics.median(s for _, _, s in requests)
    out.layers["cube.io.load.seconds"] = (
        sum(op["self"].get("cube.io.load", 0.0) for op in dump["ops"].values()) * scale,
        "s",
    )
    out.diagnostics["traced_requests_joined"] = f"{len(ops)}/{len(requests)}"


# -- serve-read ---------------------------------------------------------------


def run_serve_read(args, work: Path) -> Outcome:
    out = Outcome("serve-read")
    rng = np.random.default_rng(args.seed)
    values = inputs.anticorrelated(10_000, rng)
    host = Host()
    store, groups, labels = publish(out, host, values, work, args.trace)
    script = inputs.read_script(labels, 100_000, rng)
    out.diagnostics["script_digest"] = inputs.digest(script)
    skylines = oracle.all_skylines(values)
    problems = oracle.check_groups(values, groups, skylines)
    if problems:
        out.problems.append(f"published cube disagrees with the oracle: {problems[0]}")
    check = oracle.ReadOracle(values, labels, skylines)

    server = cold_starts(out, host, work, store)
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        records, windows = _closed_loop(out, server, host, script, seconds, 0, args.seed)
        out.e2e["peak_rss_mb"] = server.rss_mb()
    finally:
        server.close()
    _read_metrics(out, records, windows)
    if args.trace:
        untraced_p50 = out.e2e["read_p50_ms"]
        spans = work / "spans.json"
        server = Server(host, work, store, spans)
        try:
            traced, _ = _closed_loop(
                out, server, host, script, seconds, len(records), args.seed
            )
        finally:
            server.close()
        records += traced
        lat = [(r[5] - r[4]) * r[6] * 1e3 for r in traced]
        out.diagnostics["tracing_overhead_ms"] = round(
            statistics.median(lat) - untraced_p50, 4
        )
        server_layers(out, [(r[3], r[5] - r[4], r[6]) for r in traced], spans)
    for kind, label, mask, _tid, _sent, _done, _scale, status, body in records:
        out.attempted += 1
        if status != 200:
            out.fail(f"{kind} answered HTTP {status}")
        elif not check.check(kind, label, mask, json.loads(body)["result"]):
            out.fail(f"wrong answer to {inputs.request_path(kind, label, mask)}")
    finish_guard(out, host)
    return out


def _closed_loop(out, server, host, script, seconds, start, seed):
    """Back-to-back reads on one connection in windows between refs."""
    client = Client("127.0.0.1", server.port)
    records = []
    windows = []
    i = start
    load = 0.0
    r_before = host.ref()
    while load < seconds:
        t_start = now()
        t_end = t_start + WINDOW
        first = len(records)
        while now() < t_end:
            kind, label, mask = script[i % len(script)]
            tid = trace_id(seed, i)
            sent = now()
            try:
                resp = client.request("GET", inputs.request_path(kind, label, mask), tid)
            except REQUEST_ERRORS as exc:
                resp = Response(0, str(exc).encode(), "", sent, now())
            # Keep the trace id the server echoed: the traced run joins on it.
            records.append(
                [kind, label, mask, resp.trace_id, resp.sent, resp.done, 0.0,
                 resp.status, resp.body]
            )
            i += 1
        wall = now() - t_start
        r_after = host.ref()
        scale = Host.scale(r_before, r_after)
        for record in records[first:]:
            record[6] = scale
        windows.append((len(records) - first, wall, scale))
        load += wall
        r_before = r_after
    client.close()
    out.diagnostics["connections_per_read"] = round(client.connects / len(records), 4)
    return records, windows


def _read_metrics(out: Outcome, records, windows) -> None:
    lat = [(r[5] - r[4]) * r[6] * 1e3 for r in records]
    raw = [(r[5] - r[4]) * 1e3 for r in records]
    out.e2e["read_p50_ms"] = statistics.median(lat)
    out.e2e["read_p90_ms"] = pct(lat, 0.9)
    out.e2e["reads_per_s"] = sum(n for n, _, _ in windows) / sum(
        wall * scale for _, wall, scale in windows
    )
    keys = {tuple(r[:3]) for r in records}
    out.diagnostics.update(
        {
            "reads": len(records),
            "raw_read_p50_ms": round(statistics.median(raw), 4),
            "raw_reads_per_s": round(
                sum(n for n, _, _ in windows) / sum(w for _, w, _ in windows), 2
            ),
            # The cache key is (cube version, kind, parameters); the
            # version is fixed here, so these are the run's distinct keys.
            "distinct_cache_keys": len(keys),
            "distinct_keys_over_cache_entries": round(len(keys) / CACHE_ENTRIES, 2),
        }
    )


# -- serve-write --------------------------------------------------------------


def run_serve_write(args, work: Path) -> Outcome:
    out = Outcome("serve-write")
    rng = np.random.default_rng(args.seed)
    values = inputs.independent(20_000, rng)
    host = Host()
    store, groups, labels = publish(out, host, values, work, args.trace)
    # Each server run starts from the published base: a copy taken before
    # any write, so the traced server does not replay the untraced WAL.
    traced_store = work / "store-traced"
    shutil.copytree(store, traced_store)
    base_sky = oracle.all_skylines(values)
    problems = oracle.check_groups(values, groups, base_sky)
    if problems:
        out.problems.append(f"published cube disagrees with the oracle: {problems[0]}")
    seeds = np.array(sorted(base_sky[(1 << inputs.N_DIMS) - 1]))
    script = inputs.write_script(values, seeds, WRITE_CYCLES, rng)
    reads = rng.integers(1, 1 << inputs.N_DIMS, size=len(script)).tolist()
    out.diagnostics["script_digest"] = inputs.digest(script, reads)
    expect = _WriteOracle(values, labels, base_sky, script)

    server = cold_starts(out, host, work, store)
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        steps = _paired_loop(server, host, script, reads, seconds, args.seed)
        out.e2e["peak_rss_mb"] = server.rss_mb()
        _final_check(out, server, expect, len(steps))
    finally:
        server.close()
    _write_metrics(out, steps)
    _check_steps(out, expect, steps)
    if args.trace:
        spans = work / "spans.json"
        server = Server(host, work, traced_store, spans)
        try:
            traced = _paired_loop(server, host, script, reads, seconds, args.seed)
            _final_check(out, server, expect, len(traced))
        finally:
            server.close()
        _check_steps(out, expect, traced)
        lat = [(s["write"].done - s["write"].sent) * s["scale"] * 1e3 for s in traced]
        out.diagnostics["tracing_overhead_write_p50_ms"] = round(
            statistics.median(lat) - out.e2e["write_p50_ms"], 4
        )
        requests = [
            (s[kind].trace_id, s[kind].done - s[kind].sent, s["scale"])
            for s in traced
            for kind in ("write", "read")
        ]
        server_layers(out, requests, spans, writes=len(traced))
    finish_guard(out, host)
    return out


def _paired_loop(server, host, script, reads, seconds, seed) -> list[dict]:
    """Closed-loop steps in windows between reference runs.

    A step sends the next scripted write on one connection and, right
    behind it, a skyline read on a second connection, then waits for both
    answers in whichever order they come.  So every read runs beside a
    write: they share the server's CPU, and the read may wait for the
    snapshot's name lock while the write holds it.
    """
    writer = Client("127.0.0.1", server.port)
    reader = Client("127.0.0.1", server.port)
    selector = selectors.DefaultSelector()
    steps: list[dict] = []
    load = 0.0
    r_before = host.ref()
    while load < seconds:
        t_start = now()
        t_end = t_start + WINDOW
        first = len(steps)
        while now() < t_end:
            i = len(steps)
            op, label, row = script[i % len(script)]
            mask = reads[i % len(reads)]
            body = {"label": label} if op == "delete" else {"label": label, "row": row}
            step = {"mask": mask, "scale": 0.0}
            try:
                writer.send("POST", f"/v1/maintenance/{op}", trace_id(seed, 2 * i + 1), body)
                reader.send(
                    "GET",
                    f"/v1/skyline?subspace={inputs.mask_name(mask)}",
                    trace_id(seed, 2 * i),
                )
                for kind, client in (("write", writer), ("read", reader)):
                    selector.register(client.socket(), selectors.EVENT_READ, (kind, client))
                while selector.get_map():
                    ready = selector.select(timeout=60)
                    if not ready:
                        raise TimeoutError("no answer within 60 s")
                    for key, _ in ready:
                        selector.unregister(key.fileobj)
                        kind, client = key.data
                        step[kind] = client.receive()
            except REQUEST_ERRORS as exc:
                for key in list(selector.get_map().values()):
                    selector.unregister(key.fileobj)
                writer.close()
                reader.close()
                step["error"] = str(exc)
            steps.append(step)
        wall = now() - t_start
        r_after = host.ref()
        scale = Host.scale(r_before, r_after)
        for step in steps[first:]:
            step["scale"] = scale
        load += wall
        r_before = r_after
    selector.close()
    writer.close()
    reader.close()
    return steps


class _WriteOracle:
    """Expected skylines after the first ``k`` scripted writes.

    Every scripted cycle deletes what it inserts, so the dataset after ``k``
    writes is the base plus the inserts still present in the current cycle,
    and its skyline in ``A`` is the skyline of (base skyline in ``A``) plus
    those rows.
    """

    def __init__(self, values, labels, base_sky, script):
        self.values = values
        self.labels = labels
        self.base_sky = base_sky
        self.script = script
        self._cache: dict[tuple[int, int], list[str]] = {}

    def present(self, position: int) -> list:
        rows: dict[str, list[float]] = {}
        for op, label, row in self.script[position - position % 8 : position]:
            if op == "insert":
                rows[label] = row
            else:
                del rows[label]
        return list(rows.items())

    def skyline(self, k: int, mask: int) -> list[str]:
        key = (k % len(self.script), mask)
        if key not in self._cache:
            base = sorted(self.base_sky[mask])
            extra = self.present(key[0])
            matrix = np.vstack([self.values[base]] + [np.array([r]) for _, r in extra])
            names = [self.labels[i] for i in base] + [label for label, _ in extra]
            keep = oracle.skyline(matrix, mask)
            self._cache[key] = [names[i] for i in range(len(names)) if i in keep]
        return self._cache[key]


def _mutations(cube_version: str) -> int:
    _, _, count = cube_version.partition("+")
    return int(count or 0)


def _final_check(out: Outcome, server: Server, expect: _WriteOracle, k: int) -> None:
    """Every subspace skyline served after the run equals the oracle's."""
    client = Client("127.0.0.1", server.port)
    for mask in inputs.SUBSPACES:
        out.attempted += 1
        resp = client.request(
            "GET", f"/v1/skyline?subspace={inputs.mask_name(mask)}", trace_id(7, mask)
        )
        payload = json.loads(resp.body) if resp.status == 200 else {}
        if resp.status != 200 or _mutations(payload["cube_version"]) != k:
            out.fail(f"final skyline of {inputs.mask_name(mask)}: HTTP {resp.status}")
        elif payload["result"] != expect.skyline(k, mask):
            out.fail(f"final skyline of {inputs.mask_name(mask)} is wrong")
    client.close()


def _check_steps(out: Outcome, expect: _WriteOracle, steps: list[dict]) -> None:
    """Write ``i`` is acknowledged as mutation ``i + 1`` on the fast path;
    the read beside it sees mutation ``i`` or ``i + 1`` (never going back)
    and the skyline of that state."""
    last = -1
    fast = 0
    for i, step in enumerate(steps):
        out.attempted += 2
        if "error" in step:
            out.fail(f"step {i}: {step['error']}", 2)
            continue
        write, read = step["write"], step["read"]
        if write.status != 200:
            out.fail(f"write answered HTTP {write.status}")
        else:
            payload = json.loads(write.body)
            fast += bool(payload["fast_path"])
            if _mutations(payload["cube_version"]) != i + 1:
                out.fail(f"write {i} acknowledged as {payload['cube_version']}")
        if read.status != 200:
            out.fail(f"read answered HTTP {read.status}")
            continue
        payload = json.loads(read.body)
        k = _mutations(payload["cube_version"])
        if k < last or k not in (i, i + 1):
            out.fail(f"read beside write {i} saw {payload['cube_version']}")
        elif payload["result"] != expect.skyline(k, step["mask"]):
            out.fail(f"wrong skyline of {inputs.mask_name(step['mask'])} at +{k}")
        last = max(last, k)
    out.diagnostics["writes_fast"] = out.diagnostics.get("writes_fast", 0) + fast
    out.diagnostics["writes_full"] = (
        out.diagnostics.get("writes_full", 0) + len(steps) - fast
    )


def _write_metrics(out: Outcome, steps: list[dict]) -> None:
    ok = [s for s in steps if "error" not in s]
    write_raw = [(s["write"].done - s["write"].sent) * 1e3 for s in ok]
    read_raw = [(s["read"].done - s["read"].sent) * 1e3 for s in ok]
    write_lat = [ms * s["scale"] for ms, s in zip(write_raw, ok)]
    read_lat = [ms * s["scale"] for ms, s in zip(read_raw, ok)]
    out.e2e["write_p50_ms"] = statistics.median(write_lat)
    out.e2e["write_p90_ms"] = pct(write_lat, 0.9)
    # Writes completed per second of write time, like builds_per_s.
    out.e2e["writes_per_s"] = len(write_lat) / (sum(write_lat) / 1e3)
    out.e2e["read_p50_ms"] = statistics.median(read_lat)
    out.e2e["read_p90_ms"] = pct(read_lat, 0.9)
    read_first = sum(s["read"].done < s["write"].done for s in ok)
    out.diagnostics.update(
        {
            "steps": len(steps),
            "reads_done_before_write_share": round(read_first / len(ok), 4),
            "raw_write_p50_ms": round(statistics.median(write_raw), 3),
            "raw_write_p90_ms": round(pct(write_raw, 0.9), 3),
            "raw_writes_per_s": round(len(write_raw) / (sum(write_raw) / 1e3), 2),
            "raw_read_p50_ms": round(statistics.median(read_raw), 3),
            "raw_read_p90_ms": round(pct(read_raw, 0.9), 3),
        }
    )


RUNNERS = {
    "build-anti": run_build_anti,
    "serve-read": run_serve_read,
    "serve-write": run_serve_write,
}
