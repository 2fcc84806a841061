"""ceildyn benchmark: one closed-loop client running CLI workloads in-process.

Run from the root of a checkout:

    python3 bench/run.py --workload shallow_scan --seed 1 --seconds 20 --trace 0

One process acts as a single closed-loop client.  It issues the workload's
`ceildyn` commands in order through `ceildyn.cli.main` (with --workers 1),
captures stdout, and repeats the whole list in rounds until --seconds have
passed.  Every output is checked against bench/oracle.py after the timed
rounds.  With --trace 0 it reports the end-to-end metrics, round times both
as measured and scaled to a fixed host speed (see gauge.py); with
--trace 1 it runs the kernel micro-benchmarks, then alternates untraced and
traced rounds and reports the per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object.  A results file with the run
record goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

from gauge import PROBE_NOMINAL_S, speed_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 9
MIN_ROUNDS = 3
PROBE_EVERY_S = 0.25  # longest gap between gauge readings within a round
# The child reads the shared monotonic clock once the parser is built, then
# runs the gauge on its own CPU right after.
SETUP_CODE = (
    "import time; import ceildyn.cli as cli; cli.build_parser(); "
    "built = time.clock_gettime(time.CLOCK_MONOTONIC); "
    "import sys; sys.path.append({bench!r}); "
    "from gauge import speed_probe; print(built, speed_probe())"
)


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    exported without .git reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, rounds: dict) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def measure_setup() -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter until it has imported ceildyn.cli
    and built the parser: as measured, and scaled by the child's own gauge."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE.format(bench=str(Path(__file__).parent))]
    run = {"stdout": subprocess.PIPE, "stderr": subprocess.DEVNULL, "env": env, "check": True}
    subprocess.run(cmd, **run)  # byte-compiles the package once, as an install would
    raw, normalised = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        built, gauge = map(float, subprocess.run(cmd, **run).stdout.split())
        raw.append(built - start)
        normalised.append((built - start) * PROBE_NOMINAL_S / gauge)
    return raw, normalised


class Client:
    """Closed-loop client: each command starts after the previous one returns."""

    def __init__(self, cli, commands, cached: bool):
        self.cli = cli
        self.commands = commands
        self.cached = cached
        self.first: list[tuple[int, str, str]] | None = None  # (exit code, stdout, stderr)
        self.mismatches: list[str] = []
        self.tracer = None
        self.rounds = 0

    def round(self) -> tuple[list[float], list[float]]:
        """Run every command once (twice against a fresh cache when cached).

        Returns each command's latency as measured and the same latencies at
        the gauge's nominal speed, each scaled by the mean of the gauge
        readings taken just before and just after it."""
        cache_dir = None
        argv_tail: tuple[str, ...] = ()
        if self.cached:
            OUT_DIR.mkdir(exist_ok=True)
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
            argv_tail = ("--cache", cache_dir)
        results, latencies, before = [], [], []
        probes = [speed_probe()]
        last_probe = time.perf_counter()
        try:
            for _ in range(2 if self.cached else 1):
                for command in self.commands:
                    if self.tracer is not None:
                        self.tracer.command_id = len(results)
                    out, err = io.StringIO(), io.StringIO()
                    before.append(len(probes) - 1)
                    t0 = time.perf_counter()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = self.cli.main(list(command.argv + argv_tail))
                        except Exception:  # a crash is a failed command, as in a shell
                            traceback.print_exc()
                            code = 1
                    t1 = time.perf_counter()
                    latencies.append(t1 - t0)
                    results.append((code, out.getvalue(), err.getvalue()))
                    if t1 - last_probe >= PROBE_EVERY_S:
                        probes.append(speed_probe())
                        last_probe = time.perf_counter()
            probes.append(speed_probe())
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        self.rounds += 1
        self._compare(results)
        normalised = [
            t * 2 * PROBE_NOMINAL_S / (probes[i] + probes[i + 1])
            for t, i in zip(latencies, before)
        ]
        return latencies, normalised

    def _compare(self, results) -> None:
        n = len(self.commands)
        if self.cached:
            for i, (cold, warm) in enumerate(zip(results[:n], results[n:])):
                if cold != warm:
                    self.mismatches.append(f"{self.commands[i].text}: cached pass differs")
        if self.first is None:
            self.first = results[:n]
            return
        for i, (now, then) in enumerate(zip(results[:n], self.first)):
            if now != then:
                self.mismatches.append(f"{self.commands[i].text}: output changed between rounds")

    def failures(self) -> list[str]:
        """Commands whose exit code was nonzero or whose output the oracle rejects."""
        bad = []
        for command, (code, output, error) in zip(self.commands, self.first):
            if code != 0:
                reason = f"exit code {code}: {error.strip().splitlines()[-1:]}"
            else:
                reason = command.check(output)
            if reason is not None:
                bad.append(f"{command.text}: {reason}")
        return bad


def timed_rounds(run_round, seconds: float, min_rounds: int = MIN_ROUNDS):
    results = []
    start = time.perf_counter()
    while len(results) < min_rounds or time.perf_counter() - start < seconds:
        results.append(run_round())
    return results


def percentile_with_tail(samples: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """Value at the highest percentile with at least `beyond` samples above it;
    returns (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - beyond - 1 if n > beyond else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


def count_rows(command, output: str) -> tuple[int, int]:
    """(rows emitted, rows marked unresolved) in one command's output."""
    fmt = command.argv[command.argv.index("--format") + 1]
    lines = output.splitlines()
    if command.argv[0] == "padic-tree" and fmt == "json":
        return 1, 0  # one JSON document, not JSON Lines
    if fmt == "csv":
        if not lines:
            return 0, 0
        header = lines[0].split(",")
        if "unresolved" not in header:
            return len(lines) - 1, 0
        col = header.index("unresolved")
        return len(lines) - 1, sum(1 for line in lines[1:] if line.split(",")[col] == "true")
    if fmt == "json":
        return len(lines), sum(1 for line in lines if json.loads(line).get("unresolved") is True)
    if fmt == "table":
        return len(lines), sum(1 for line in lines if "unresolved=true" in line.split())
    return len(lines), 0


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_hooks() -> dict:
    """Counters taken from call results; each runs after its span has closed."""

    def render_bytes(tracer, args, result):
        tracer.counters["cli.render.bytes"] += len(result)

    def cache_load(tracer, args, result):
        config = args[0]
        if result is not None:
            tracer.counters["cli.cache_load.hits"] += 1
        elif config.cache_dir is not None:
            tracer.counters["cli.cache_load.misses"] += 1

    def cache_store(tracer, args, result):
        config, output = args
        if config.cache_dir is not None:
            tracer.counters["cli.cache_store.bytes"] += len(output)

    def conjugate(tracer, args, result):
        tracer.seen["conjugate_g"].add(Fraction(args[0]))

    def census(tracer, args, result):
        tracer.counters["multmaps.exceptional_census.survivors"] += result.count

    def ap_count(tracer, args, result):
        if result.enumerated is not None:
            tracer.counters["chains.ap_count_for_chain.enumerated"] += result.modulus

    def tree(tracer, args, result):
        tracer.counters["padic.omega_prefix_tree.nodes"] += sum(result.sizes)

    hooks = {f"cli.{name}": render_bytes for name in RENDERERS}
    hooks.update({
        "cli.cache_load": cache_load,
        "cli.cache_store": cache_store,
        "multmaps.conjugate_g": conjugate,
        "multmaps.exceptional_census": census,
        "chains.ap_count_for_chain": ap_count,
        "padic.omega_prefix_tree": tree,
    })
    return hooks


RENDERERS = ("render_table", "render_json", "render_csv", "export_bfile")

# (metric, unit) in report order; values come from layer_values()
LAYER_METRICS = (
    ("window.stopping_time_windowed.calls", "count"),
    ("window.stopping_time_windowed.self_s", "s"),
    ("chains.squaring_census.self_s", "s"),
    ("squaring.stopping_time_exact.calls", "count"),
    ("squaring.stopping_time_exact.self_s", "s"),
    ("cli.rows.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.render.bytes", "bytes"),
    ("cli.parse.self_s", "s"),
    ("cli.cache_load.self_s", "s"),
    ("cli.cache_load.hits", "count"),
    ("cli.cache_load.misses", "count"),
    ("cli.cache_store.self_s", "s"),
    ("cli.cache_store.bytes", "bytes"),
    ("multmaps.stopping_time_mult.calls", "count"),
    ("multmaps.stopping_time_mult.self_s", "s"),
    ("multmaps.conjugate_g.calls", "count"),
    ("multmaps.conjugate_g.useful_ratio", "ratio"),
    ("multmaps.exceptional_census.self_s", "s"),
    ("multmaps.exceptional_census.survivors", "count"),
    ("chains.ap_count_for_chain.self_s", "s"),
    ("chains.ap_count_for_chain.enumerated", "count"),
    ("padic.omega_prefix_tree.self_s", "s"),
    ("padic.omega_prefix_tree.nodes", "count"),
    ("padic.tree_to_json.self_s", "s"),
    ("multmaps.exceptional_denominator2.self_s", "s"),
    ("rational.factorize.calls", "count"),
    ("rational.factorize.self_s", "s"),
    ("squaring.trajectory.self_s", "s"),
)


def layer_values(tracer) -> dict[str, float]:
    """One traced round's per-layer values, keyed as in LAYER_METRICS."""
    self_s, calls = tracer.self_s, tracer.calls
    values = {}
    for name, _ in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif stat == "calls":
            values[name] = calls.get(layer, 0)
        else:
            values[name] = tracer.counters.get(name, 0)
    handlers = sum(v for k, v in self_s.items() if k.startswith("cli.cmd_"))
    values["cli.rows.self_s"] = self_s.get("cli.run_command", 0.0) + handlers
    values["cli.render.self_s"] = sum(self_s.get(f"cli.{name}", 0.0) for name in RENDERERS)
    values["cli.parse.self_s"] = self_s.get("cli.main", 0.0) + self_s.get("cli.build_parser", 0.0)
    builds = calls.get("multmaps.conjugate_g", 0)
    distinct = len(tracer.seen.get("conjugate_g", ()))
    values["multmaps.conjugate_g.useful_ratio"] = distinct / builds if builds else 0.0
    return values


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    if not (SRC / "ceildyn" / "cli.py").is_file():
        print(f"error: no ceildyn sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import micro
    import spans
    import workloads
    from ceildyn import chains, cli, maps, multmaps, padic, rational, squaring, window

    rng = random.Random(args.seed)
    commands = workloads.WORKLOADS[args.workload](rng)
    client = Client(cli, commands, args.workload in workloads.CACHED)
    passes = 2 if client.cached else 1
    starts_per_round = passes * sum(c.starts for c in commands)
    human: list[str] = []
    record_extra: dict = {}

    if args.trace == 0:
        setup_raw, setup = measure_setup()
        rounds = timed_rounds(client.round, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls = [sum(raw) for raw, _ in rounds]
        norm_walls = [sum(norm) for _, norm in rounds]
        wall_s = statistics.median(walls)
        norm_wall_s = statistics.median(norm_walls)
        metrics = {
            "norm_wall_s": (norm_wall_s, "s"),
            "norm_starts_per_s": (starts_per_round / norm_wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        record_extra.update(walls_s=walls, norm_walls_s=norm_walls, setup_raw_s=setup_raw,
                            setup_norm_s=setup)
        per_command = zip(*(norm for _, norm in rounds))
        record_extra["command_norm_median_s"] = [statistics.median(c) for c in per_command]
        human.append(f"starts per round: {starts_per_round} (input size of the workload)")
        human.append(f"wall_s = {wall_s:.6g} s (as measured; norm_wall_s is at the gauge speed)")
        human.append(f"starts_per_s = {starts_per_round / wall_s:.6g} 1/s (as measured)")
        human.append(f"setup_s as measured = {statistics.median(setup_raw):.6g} s")
        if client.cached:
            latencies = [t for raw, _ in rounds for t in raw]
            tail, pct, count = percentile_with_tail(latencies)
            latency = {"cmd_p50_ms": statistics.median(latencies) * 1e3, "cmd_tail_ms": tail * 1e3}
            record_extra.update(latency, cmd_tail_percentile=pct, cmd_samples=count)
            human.extend(f"{k} = {v:.6g} ms (as measured)" for k, v in latency.items())
            human.append(f"cmd_tail_ms is p{pct:.1f} of {count} command latencies")
        else:
            human.append("cmd_p50_ms, cmd_tail_ms: n/a (too few commands for a percentile)")
        n_rounds = len(rounds)
    else:
        layer = micro.run(window, multmaps)
        modules = (rational, maps, squaring, window, multmaps, chains, padic, cli)
        tracer = spans.Tracer(modules, layer_hooks())
        untraced, traced = [], []

        def pair():
            untraced.append(sum(client.round()[1]))
            tracer.reset()
            tracer.keep = not traced
            tracer.install()
            client.tracer = tracer
            try:
                traced.append((sum(client.round()[1]), layer_values(tracer)))
            finally:
                tracer.uninstall()
                client.tracer = None
                tracer.keep = False

        timed_rounds(pair, args.seconds, min_rounds=1)
        metrics = {}
        for name, unit in LAYER_METRICS:
            metrics[name] = (statistics.median(v[name] for _, v in traced), unit)
        metrics.update(layer)
        overhead = statistics.median(w for w, _ in traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        span_file = OUT_DIR / f"spans_{args.workload}.csv.gz"
        record_extra["spans_file"] = str(span_file.relative_to(ROOT))
        record_extra["spans_written"] = tracer.write(str(span_file))
        record_extra["untraced_norm_walls_s"] = untraced
        record_extra["traced_norm_walls_s"] = [w for w, _ in traced]
        n_rounds = len(traced)
        human.append("step_split figures are a primitive-level reference, not program time")
        human.append("trace.overhead_s compares round times at the gauge speed")

    failures = client.failures()
    rows = unresolved = 0
    for command, (_, output, _) in zip(commands, client.first):
        emitted, marked = count_rows(command, output)
        rows += emitted
        unresolved += marked
    # a rejected output repeats in every run of its command (or is a mismatch)
    attempted = client.rounds * passes * len(commands)
    failed = min(attempted, len(failures) * client.rounds * passes + len(client.mismatches))
    fail_ratio = failed / attempted
    unresolved_ratio = unresolved / rows if rows else 0.0
    correct = not failures and not client.mismatches

    human.insert(0, f"workload={args.workload} seed={args.seed} rounds={n_rounds} "
                    f"commands={len(commands)} passes={passes}")
    for name, (value, unit) in metrics.items():
        human.append(f"{name} = {value:.6g} {unit}")
    human.append(f"fail_ratio = {fail_ratio:.6g} ({failed}/{attempted} commands)")
    human.append(f"unresolved_ratio = {unresolved_ratio:.6g} ({unresolved}/{rows} rows)")
    for line in failures + client.mismatches:
        human.append(f"FAILED {line}")

    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = run_record(args, {"count": client.rounds, **record_extra})
    record.update({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": fail_ratio,
        "unresolved_ratio": unresolved_ratio,
        "unresolved_rows": unresolved,
        "rows": rows,
        "failures": failures + client.mismatches,
        "commands": [c.text for c in commands],
        "metrics": metrics_json,
    })
    OUT_DIR.mkdir(exist_ok=True)
    result_file = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=2) + "\n")
    human.append(f"results file: {result_file.relative_to(ROOT)}")

    print("\n".join(human))
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics_json}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
