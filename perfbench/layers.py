"""Per-layer tracing from outside the program.

The traced run wraps the public functions at each layer boundary of the
program (Stellar's four phases, the cube, the WAL, the serving tier) with
spans recorded in memory.  A span's *self time* is its duration minus the
time its child spans cover, so the self times of one operation partition
its wall-clock time; what no span covers is reported as ``unattributed``.

Nothing here changes what the program computes: each wrapper calls the
original and returns its result unchanged.
"""

from __future__ import annotations

import importlib
import json
import statistics
import threading
import time
from collections import defaultdict

#: Layers in the order the table prints them.
LAYERS = (
    "serve.http",
    "serve.service",
    "serve.admission",
    "serve.query",
    "serve.store",
    "cube.io.load",
    "serve.cache",
    "cube.query",
    "cube.maintenance",
    "wal.append",
    "core.stellar",
    "skyline",
    "core.cgroups",
    "core.seeds",
    "core.extension",
    "cube.index",
)


class Op:
    """Self time, call counts and work counts of one traced operation."""

    __slots__ = ("self_s", "calls", "counts", "total")

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.total = 0.0

    def to_dict(self) -> dict:
        return {
            "self": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "total": self.total,
        }


class Recorder:
    """Thread-aware span stack; one :class:`Op` per operation key."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.ops: dict[str, Op] = {}

    def begin(self) -> Op:
        op = Op()
        self._tls.op = op
        self._tls.stack = []
        return op

    def end(self, key: str, op: Op, total: float) -> None:
        op.total = total
        self._tls.op = None
        with self._lock:
            self.ops[key] = op

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as a span named ``name``.

        ``count(op, result, args)`` may add work counts after the call.
        """
        tls = self._tls

        def traced(*args, **kwargs):
            op = getattr(tls, "op", None)
            if op is None:  # outside any traced operation
                return fn(*args, **kwargs)
            stack = tls.stack
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                op.self_s[name] += elapsed - frame[0]
                op.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                count(op, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, extra: dict | None = None) -> None:
        with self._lock:
            ops = {key: op.to_dict() for key, op in self.ops.items()}
        with open(path, "w") as handle:
            json.dump({"ops": ops, **(extra or {})}, handle)


def _patch(owner, attr: str, recorder: Recorder, name: str, count=None) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, recorder.wrap(name, original, count))


def _count_len(key: str):
    def count(op: Op, result, args) -> None:
        op.counts[key] += len(result)

    return count


def _count_plan(op: Op, result, args) -> None:
    plan = args[0].last_plan
    op.counts["cube.query.misses"] += 1
    if plan is not None:
        op.counts["cube.query.groups_considered"] += plan.counters.get(
            "groups_considered", 0
        )
        op.counts["cube.query.interval_checks"] += plan.counters.get(
            "interval_checks", 0
        )


def _count_fast(op: Op, result, args) -> None:
    op.counts["cube.maintenance.fast"] += bool(result)


def _count_wal(op: Op, result, args) -> None:
    from repro.wal import encode_record

    op.counts["wal.bytes"] += len(encode_record(result))


def _count_cache(op: Op, result, args) -> None:
    op.counts["serve.cache.gets"] += 1
    op.counts["serve.cache.hits"] += bool(result[1])


def install_build_layers(recorder: Recorder) -> None:
    """Wrap Stellar's phases and the cube index (the build path)."""
    # ``repro.core.stellar`` the attribute is the function; take the module.
    stellar_mod = importlib.import_module("repro.core.stellar")
    import repro.cube.compressed as compressed_mod
    import repro.cube.maintenance as maintenance_mod

    _patch(
        stellar_mod,
        "compute_skyline",
        recorder,
        "skyline",
        _count_len("skyline.seeds"),
    )
    _patch(stellar_mod, "PairwiseMatrices", recorder, "core.cgroups")
    _patch(
        stellar_mod,
        "enumerate_maximal_cgroups",
        recorder,
        "core.cgroups",
        _count_len("core.cgroups.count"),
    )
    _patch(
        stellar_mod,
        "compute_seed_groups",
        recorder,
        "core.seeds",
        _count_len("core.seeds.groups"),
    )
    _patch(
        stellar_mod,
        "extend_with_nonseeds",
        recorder,
        "core.extension",
        _count_len("core.extension.groups"),
    )
    traced_stellar = recorder.wrap("core.stellar", stellar_mod.stellar)
    stellar_mod.stellar = traced_stellar
    maintenance_mod.stellar = traced_stellar
    cube_cls = compressed_mod.CompressedSkylineCube
    cube_cls.__init__ = recorder.wrap("cube.index", cube_cls.__init__)


def install_serve_layers(recorder: Recorder) -> None:
    """Wrap the serving tier, the WAL and maintenance (plus the build path)."""
    install_build_layers(recorder)
    import repro.cube.maintenance as maintenance_mod
    import repro.cube.query as query_mod
    import repro.serve.admission as admission_mod
    import repro.serve.cache as cache_mod
    import repro.serve.store as store_mod
    import repro.wal.log as wal_mod

    engine = query_mod.QueryEngine
    for method in ("skyline", "where_wins", "wins_in", "why_not", "signature_of"):
        _patch(engine, method, recorder, "cube.query", _count_plan)
    cube_maint = maintenance_mod.MaintainedCube
    _patch(cube_maint, "insert", recorder, "cube.maintenance", _count_fast)
    _patch(cube_maint, "delete", recorder, "cube.maintenance", _count_fast)
    _patch(wal_mod.WalWriter, "append", recorder, "wal.append", _count_wal)
    cache = cache_mod.ResultCache
    _patch(cache, "get", recorder, "serve.cache", _count_cache)
    _patch(cache, "put", recorder, "serve.cache")
    _patch(cache, "invalidate", recorder, "serve.cache")
    store = store_mod.SnapshotStore
    for method in ("names", "versions", "current_version", "load"):
        _patch(store, method, recorder, "serve.store")
    for loader in ("load_snapshot_binary", "load_cube", "load_csv"):
        _patch(store_mod, loader, recorder, "cube.io.load")
    _patch(
        admission_mod.AdmissionController, "_acquire", recorder, "serve.admission"
    )
    import repro.serve.app as app_mod

    service = app_mod.CubeService
    _patch(service, "_state", recorder, "serve.query")


def query_overhead_raw_us(cube) -> float:
    """Observed ``QueryEngine.where_wins`` minus the bare cube call, in µs.

    The bare call is ``CompressedSkylineCube.membership_subspaces`` on the
    same object; the difference is the cost of observing a query (span,
    metrics, plan, slow-query log).  Median over 50 objects (three calls
    each) of the per-call difference, raw: the caller brackets the call
    with the reference kernel to report it at reference speed.
    """
    from repro.cube import QueryEngine

    engine = QueryEngine(cube)
    labels = cube.dataset.labels
    objects = range(0, len(labels), max(1, len(labels) // 50))
    diffs = []
    for obj in objects:
        for _ in range(3):
            t0 = time.perf_counter()
            engine.where_wins(labels[obj])
            t1 = time.perf_counter()
            cube.membership_subspaces(obj)
            t2 = time.perf_counter()
            diffs.append((t1 - t0) - (t2 - t1))
    return statistics.median(diffs) * 1e6
