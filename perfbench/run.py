"""Cold fresh-process benchmark of the reproduction's three user paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

Each run of a workload is a fresh Python process (``perfbench/child.py``),
one at a time: a closed loop with a single client.  The invocation
first times the set-up (a fresh ``import repro``; on ``scan-warm`` also
filling the world snapshot cache) several times, then spawns runs until
``--seconds`` have passed and reports medians.  ``--trace 0`` reports
the end-to-end metrics of untraced runs; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics, writing the
median traced run's Chrome trace and layer table under
``.bench_build/perfbench/``.  Every run's report is hashed: all runs of
an invocation, traced or not, must produce the same report, equal to
the one recorded earlier for the same source tree and seed, and the
paper-band checks must hold.  The last stdout line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); ``--all`` prints
every metric of every workload and ends with the output-check verdict.

See perfbench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORKLOADS = ("campaign-cold", "scan-warm", "distributed")
SCALE = 1000

#: Set-up repetitions: ``import repro`` alone, and (scan-warm) the
#: import plus a cold snapshot-cache fill.
SETUP_IMPORTS = 9
SETUP_FILLS = 5
#: Fewest runs per invocation, whatever ``--seconds`` says.
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
#: A child is killed after this long, and no child outlives the
#: invocation's limit, so an invocation ends well within 180 s.
CHILD_TIMEOUT_S = 60.0
INVOCATION_LIMIT_S = 160.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "domains_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "python.startup_s": "s",
    "repro.import_s": "s",
    "web.build_s": "s",
    "web.snapshot_decode_s": "s",
    "web.snapshot_bytes": "bytes",
    "web.sections_s": "s",
    "web.rss_mb": "MB",
    "pipeline.plan_s": "s",
    "pipeline.plan_domains": "count",
    "store.columns_s": "s",
    "pipeline.plan_rss_mb": "MB",
    "pipeline.trigger_index_s": "s",
    "pipeline.schedule_s": "s",
    "pipeline.events": "count",
    "pipeline.week_s": "s",
    "pipeline.site_phase_s": "s",
    "pipeline.attribution_s": "s",
    "plugins.finalize_s": "s",
    "exchange.replayed": "count",
    "exchange.fresh": "count",
    "exchange.uncacheable": "count",
    "exchange.replay_ratio": "ratio",
    "pipeline.dedup_s": "s",
    "pipeline.vantage_s": "s",
    "quic.connections": "count",
    "quic.connected_ratio": "ratio",
    "quic.connection_ms": "ms",
    "analysis.report_s": "s",
    "analysis.render_s": "s",
    "analysis.figure3_s": "s",
    "analysis.figure4_s": "s",
    "analysis.figure8_s": "s",
    "analysis.tables_s": "s",
    "analysis.figure7_s": "s",
    "bench.traced_wall_s": "s",
    "bench.unaccounted_s": "s",
    "bench.unaccounted_pct": "%",
    "bench.trace_overhead_pct": "%",
}

#: Rows of the per-layer table: the self-time layers, then the rest.
TABLE_LAYERS = (*layers.SELF_METRICS.values(), "bench.unaccounted_s")


@dataclass
class Child:
    """The outcome of one child process."""

    mode: str
    code: int
    out: dict
    error: str

    @property
    def ok(self) -> bool:
        return self.code == 0 and bool(self.out) and not self.out.get("check_failures")


def spawn(root: Path, mode: str, workload: str, seed: int, rundir: Path,
          limit: float, cache_dir: Path | None = None) -> Child:
    """Run one child to completion (killed after its timeout)."""
    rundir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    stdout_path, stderr_path = rundir / f"{mode}.out", rundir / f"{mode}.err"
    extra = [str(cache_dir)] if cache_dir is not None else []
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        spawned = perf_counter()
        try:
            code = subprocess.run(
                [sys.executable, str(CHILD), mode, workload, str(seed), repr(spawned),
                 str(rundir), *extra],
                stdout=stdout, stderr=stderr, cwd=root, env=env,
                timeout=max(1.0, min(CHILD_TIMEOUT_S, limit - spawned)),
            ).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            code = -1
    lines = stdout_path.read_text(encoding="utf-8").strip().splitlines()
    out = {}
    if code == 0 and lines:
        try:
            out = json.loads(lines[-1])
        except ValueError:
            pass
    error = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    if code == -1:
        error += "\nkilled: timed out"
    return Child(mode, code, out, error)


def source_fingerprint(root: Path) -> str:
    """Hash of the program's source tree: "one commit" for the digests."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def setup(root: Path, workload: str, seed: int, outdir: Path,
          limit: float) -> tuple[float, Path | None, list[str]]:
    """Time the set-up several times; returns (median seconds, cache dir, errors)."""
    errors = []
    # Fill the bytecode caches first: users pay compilation once per
    # install, not per run.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")],
        stdout=subprocess.DEVNULL, cwd=root, timeout=CHILD_TIMEOUT_S, check=False,
    )
    times, cache_dir = [], None
    if workload == "scan-warm":
        for index in range(SETUP_FILLS):
            if cache_dir is not None:
                shutil.rmtree(cache_dir)
            cache_dir = outdir / f"world-cache-{index}"
            child = spawn(
                root, "setup", workload, seed, outdir / f"setup-{index}", limit, cache_dir
            )
            if not child.ok:
                errors.append(f"snapshot fill failed: {child.error.strip()[-300:]}")
                return 0.0, None, errors
            times.append(child.out["setup_s"])
    else:
        for index in range(SETUP_IMPORTS):
            child = spawn(root, "setup", workload, seed, outdir / f"setup-{index}", limit)
            if not child.ok:
                errors.append(f"import failed: {child.error.strip()[-300:]}")
                return 0.0, None, errors
            times.append(child.out["setup_s"])
    return median(times), cache_dir, errors


def check_digests(children: list[Child], record: Path, key: str) -> list[str]:
    """All runs agree, and agree with the digest recorded for this source tree."""
    digests = {child.out["digest"] for child in children if child.out.get("digest")}
    errors = []
    if len(digests) > 1:
        errors.append(f"report digests differ between runs: {sorted(digests)}")
    recorded = json.loads(record.read_text()) if record.exists() else {}
    if len(digests) == 1:
        (digest,) = digests
        known = recorded.get(key)
        if known is None:
            recorded[key] = digest
            record.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        elif known != digest:
            errors.append(f"report digest {digest[:16]} differs from the one recorded "
                          f"earlier for this source tree and seed ({known[:16]})")
    return errors


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark invocation; returns the result and printable details."""
    base = root / ".bench_build" / "perfbench"
    outdir = base / f"{workload}-seed{seed}-trace{int(trace)}"
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    limit = perf_counter() + INVOCATION_LIMIT_S
    setup_s, cache_dir, errors = setup(root, workload, seed, outdir, limit)
    children: list[Child] = []
    if not errors:
        modes = ("run", "traced") if trace else ("run",)
        minimum = MIN_TRACED_PAIRS * 2 if trace else MIN_RUNS
        deadline = perf_counter() + seconds
        index = 0
        while (index < minimum or perf_counter() < deadline) and perf_counter() < limit:
            mode = modes[index % len(modes)]
            children.append(
                spawn(root, mode, workload, seed, outdir / f"run-{index}", limit, cache_dir)
            )
            index += 1
    failed = [child for child in children if not child.ok]
    for child in failed:
        detail = "; ".join(child.out.get("check_failures", [])) or child.error.strip()[-300:]
        errors.append(f"{child.mode} run failed (exit {child.code}): {detail}")
    good = [child for child in children if child.ok]
    key = f"{source_fingerprint(root)}/{workload}/seed{seed}/scale{SCALE}"
    digest_errors = check_digests(good, base / "digests.json", key)
    errors += digest_errors
    if digest_errors:
        failed = children  # no run's output can be trusted
    untraced = [child for child in good if child.mode == "run"]
    traced = [child for child in good if child.mode == "traced"]
    walls = [child.out["wall_s"] for child in untraced]
    metrics = {
        "wall_s": median(walls),
        "cpu_s": median([child.out["cpu_s"] for child in untraced]),
        "domains_per_s": median(
            [child.out["rows"] / child.out["wall_s"] for child in untraced]
        ),
        "peak_rss_mb": median([child.out["peak_rss_mb"] for child in untraced]),
        "setup_s": setup_s,
    }
    table = ""
    if trace:
        metrics, table = layer_metrics(traced, walls, cache_dir, outdir)
    return {
        "workload": workload,
        "seed": seed,
        "scale": SCALE,
        "correct": not errors and len(good) == len(children) > 0,
        "attempted": len(children),
        "failed": len(failed),
        "errors": errors,
        "digest": next((child.out["digest"] for child in good), None),
        "runs": {mode: sum(child.mode == mode for child in good) for mode in ("run", "traced")},
        "metrics": metrics,
        "table": table,
    }


def layer_metrics(traced: list[Child], walls: list[float], cache_dir, outdir: Path):
    """Per-layer medians over the traced runs, and the median run's table."""
    if not traced:
        return {name: 0.0 for name in PER_LAYER}, ""
    samples = [dict(child.out["layers"]) for child in traced]
    for sample, child in zip(samples, traced, strict=True):
        wall = child.out["wall_s"]
        sample["bench.traced_wall_s"] = wall
        sample["bench.unaccounted_pct"] = 100.0 * sample["bench.unaccounted_s"] / wall
        connections = sample.get("quic.connections", 0)
        sample["quic.connection_ms"] = (
            1000.0 * sample["pipeline.vantage_s"] / connections if connections else 0.0
        )
    metrics = {
        name: median([sample.get(name, 0) for sample in samples])
        for name in PER_LAYER
        if name not in ("web.snapshot_bytes", "bench.trace_overhead_pct")
    }
    snapshot = sorted(cache_dir.iterdir()) if cache_dir is not None else []
    metrics["web.snapshot_bytes"] = sum(path.stat().st_size for path in snapshot)
    metrics["bench.trace_overhead_pct"] = (
        100.0 * (metrics["bench.traced_wall_s"] / median(walls) - 1.0) if walls else 0.0
    )
    metrics = {name: metrics[name] for name in PER_LAYER}
    # The run whose traced wall is the median: its layers add up exactly.
    ordered = sorted(
        zip(samples, traced, strict=True), key=lambda pair: pair[0]["bench.traced_wall_s"]
    )
    sample, child = ordered[len(ordered) // 2]
    wall = sample["bench.traced_wall_s"]
    lines = [f"{'layer (self time)':28s} {'seconds':>9s} {'share':>7s}"]
    for name in TABLE_LAYERS:
        if sample[name]:
            lines.append(f"{name:28s} {sample[name]:9.4f} {100 * sample[name] / wall:6.2f}%")
    lines.append(f"{'traced wall (spawn->report)':28s} {wall:9.4f} {100.0:6.2f}%")
    table = "\n".join(lines)
    (outdir / "layers.txt").write_text(table + "\n", encoding="utf-8")
    rundir = Path(child.out["rundir"])
    shutil.copyfile(rundir / "trace.json", outdir / "trace.json")
    return metrics, table


def print_result(result: dict, trace: bool) -> None:
    print(f"# workload {result['workload']}  seed {result['seed']}  scale {result['scale']}  "
          f"runs {result['runs']['run']} untraced / {result['runs']['traced']} traced")
    units = PER_LAYER if trace else END_TO_END
    for name, value in result["metrics"].items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    error_rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{'error_rate':28s} {error_rate:14.6g} ratio  "
          f"({result['failed']}/{result['attempted']} runs)")
    if result["table"]:
        print(result["table"])
    print(f"report sha256 {result['digest']}")
    for error in result["errors"]:
        print(f"ERROR {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced, "
                             "then the output-check verdict")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    if args.all:
        verdicts = []
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run_workload(root, workload, args.seed, args.seconds, trace)
                print_result(result, trace)
                print()
                verdicts.append((f"{workload}/trace{int(trace)}", result["correct"]))
        bad = [name for name, ok in verdicts if not ok]
        print("output check: " + ("PASS, all reports identical and in band" if not bad
                                  else "FAIL: " + ", ".join(bad)))
        return 1 if bad else 0
    result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
