"""Kernel-equivalence gate: rows vs columnar must be bit-identical.

Runs three pinned workloads through every engine x execution combination
-- ``rows`` and ``columnar``, serial and on a process pool -- and fails
unless, per workload, all four compressed cubes are identical field for
field.  The workloads are the Figure-8 smoke data (NBA-like, 300 players,
6 dims, seed 20070415), where Stellar's later phases do little, plus the
two regimes its coincidence kernels serve: a seeded anti-correlated
3000 x 4 set (a ~1,000-seed skyline) and an anti-correlated 2000 x 4 set
on a one-decimal grid (value coincidences everywhere: 218 seeds form 580
maximal c-groups).  Then, on the Figure-8 data, it serves every
non-empty subspace (all ``2^d - 1`` of them) through ``QueryEngine`` under
both engines and fails on any difference in results *or* plan counters
(the observability contract is part of the output).  Finally it
round-trips the cube through the binary snapshot format and verifies both
the fidelity of the reload and that a corrupted byte is rejected with a
checksum error.

``--selfcheck`` proves the gate has teeth: it injects an off-by-one mask
into the columnar scan kernel (every scanned subspace mask has bit 0
flipped) and requires the query-equivalence check to FAIL, then corrupts
the binary fixture and requires the loader to reject it.  A gate that
cannot fail gates nothing.

A machine-readable report is always written to
``<out>/kernel_equivalence_report.json`` (uploaded as a CI artifact on
failure), alongside the binary snapshot fixture ``<out>/fig8_smoke.bin``.

Usage::

    PYTHONPATH=src python benchmarks/kernel_equivalence.py [--out DIR]
        [--workers N] [--selfcheck]

Exit status 0 on success (or on a self-check that tripped as required),
1 on any equivalence violation (or a self-check that failed to trip).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.stellar import stellar
from repro.cube.compressed import CompressedSkylineCube
from repro.cube.io import load_snapshot_binary, save_snapshot_binary
from repro.cube.query import QueryEngine
from repro.data.generators import make_dataset
from repro.data.nba import generate_nba_like

#: Pinned Figure-8 workload (see src/repro/bench/figures.py, smoke scale).
SEED = 20070415
PLAYERS = 300
DIMS = 6

#: Further Stellar-matrix workloads: (name, distribution, n, d, seed, digits).
STELLAR_WORKLOADS = (
    ("anticorrelated-3000x4", "anticorrelated", 3000, 4, 2007, 4),
    ("coarse-grid-2000x4", "anticorrelated", 2000, 4, 2007, 1),
)

FIXTURE = "fig8_smoke.bin"
REPORT = "kernel_equivalence_report.json"


def _fingerprint(groups) -> list[tuple]:
    """Order-sensitive, field-for-field identity of a compressed cube."""
    return [
        (tuple(sorted(g.members)), g.subspace, g.decisive, g.projection)
        for g in groups
    ]


def _check_stellar_matrix(name: str, data, workers: int, report: dict) -> None:
    """Stellar under engine x parallel; all fingerprints must agree."""
    spec = f"process:{workers}"
    runs: dict[str, list[tuple]] = {}
    for engine in ("rows", "columnar"):
        for parallel in ("serial", spec):
            result = stellar(data, parallel=parallel, engine=engine)
            runs[f"{engine}/{parallel}"] = _fingerprint(result.groups)
    reference_name, reference = next(iter(runs.items()))
    report["stellar_runs"][name] = {
        run: {"groups": len(fp), "identical": fp == reference}
        for run, fp in runs.items()
    }
    for run, fp in runs.items():
        if fp != reference:
            report["failures"].append(
                f"stellar divergence on {name}: {run} != {reference_name} "
                f"({len(fp)} vs {len(reference)} groups)"
            )


def _check_queries(data, cube, report: dict) -> None:
    """Every subspace under both engines: results and plan counters."""
    engines = {name: QueryEngine(cube, engine=name) for name in ("rows", "columnar")}
    mismatches = 0
    checked = 0
    for mask in range(1, 1 << data.n_dims):
        name = data.format_subspace(mask)
        outcomes = {}
        for engine_name, qe in engines.items():
            result = qe.skyline(name)
            outcomes[engine_name] = (result, dict(qe.last_plan.counters))
        checked += 1
        if outcomes["rows"] != outcomes["columnar"]:
            mismatches += 1
            if mismatches <= 5:
                report["failures"].append(
                    f"query divergence on {name!r}: "
                    f"rows={outcomes['rows']} columnar={outcomes['columnar']}"
                )
    for kind in ("drill_down", "roll_up"):
        sub = data.names[0]
        rows_out = getattr(engines["rows"], kind)(sub)
        col_out = getattr(engines["columnar"], kind)(sub)
        checked += 1
        if rows_out != col_out:
            mismatches += 1
            report["failures"].append(f"query divergence on {kind}({sub!r})")
    report["queries_checked"] = checked
    report["query_mismatches"] = mismatches
    if mismatches > 5:
        report["failures"].append(
            f"... {mismatches - 5} further query divergences suppressed"
        )


def _check_binary_roundtrip(data, cube, out: Path, report: dict) -> None:
    """Binary snapshot: faithful reload; corrupted bytes must be rejected."""
    fixture = out / FIXTURE
    save_snapshot_binary(cube, fixture)
    _, reloaded = load_snapshot_binary(fixture, data)
    ok = _fingerprint(reloaded.groups) == _fingerprint(cube.groups)
    report["binary_roundtrip"] = {"path": str(fixture), "identical": ok}
    if not ok:
        report["failures"].append("binary snapshot round-trip altered the cube")

    corrupt = out / (FIXTURE + ".corrupt")
    blob = bytearray(fixture.read_bytes())
    blob[-1] ^= 0x01
    corrupt.write_bytes(bytes(blob))
    try:
        load_snapshot_binary(corrupt, data)
    except ValueError as exc:
        detected = "checksum" in str(exc)
    else:
        detected = False
    corrupt.unlink()
    report["binary_corruption_detected"] = detected
    if not detected:
        report["failures"].append(
            "corrupted binary snapshot was not rejected with a checksum error"
        )


def run_checks(out: Path, workers: int) -> dict:
    """All equivalence checks; returns the report (``failures`` may be [])."""
    data = generate_nba_like(n_players=PLAYERS, seed=SEED).prefix_dims(DIMS)
    report: dict = {
        "workload": {"players": PLAYERS, "dims": DIMS, "seed": SEED},
        "stellar_runs": {},
        "failures": [],
    }
    _check_stellar_matrix("fig8-smoke", data, workers, report)
    for name, distribution, n, d, seed, digits in STELLAR_WORKLOADS:
        extra = make_dataset(distribution, n, d, seed=seed, digits=digits)
        _check_stellar_matrix(name, extra, workers, report)
    cube = CompressedSkylineCube(data, stellar(data, engine="rows").groups)
    _check_queries(data, cube, report)
    _check_binary_roundtrip(data, cube, out, report)
    return report


def _inject_off_by_one_mask() -> None:
    """Sabotage the columnar scan: flip bit 0 of every scanned mask."""
    from repro.columnar.kernels import GroupIndex

    original = GroupIndex.scan

    def skewed(self, mask: int):
        return original(self, mask ^ 1)

    GroupIndex.scan = skewed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="kernel-equivalence-results",
        help="directory for the report and fixture (default: %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="process-pool size of the parallel runs (default: %(default)s)",
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="inject an off-by-one mask into the columnar kernel and "
        "require the gate to trip (exit 0 iff it does)",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.selfcheck:
        _inject_off_by_one_mask()
    report = run_checks(out, args.workers)
    report["selfcheck"] = args.selfcheck
    (out / REPORT).write_text(json.dumps(report, indent=1) + "\n")

    failures = report["failures"]
    if args.selfcheck:
        if failures:
            print(
                f"selfcheck OK: injected off-by-one mask tripped the gate "
                f"({len(failures)} failures detected)"
            )
            return 0
        print(
            "selfcheck FAILED: injected off-by-one mask went undetected",
            file=sys.stderr,
        )
        return 1
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"kernel equivalence OK: stellar engine x parallel matrix identical "
        f"on {len(report['stellar_runs'])} workloads, "
        f"{report['queries_checked']} queries identical across engines, "
        f"binary round-trip faithful, corruption rejected"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
