"""Closed-loop episode benchmark of the btai tick loop.

Run from the root of a btai checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: the next episode starts when the
previous one returns.  ``--trace 0`` measures the end-to-end metrics with
only a one-timestamp-per-tick probe installed; ``--trace 1`` measures the
same blocks untraced and then with the span recorder, and reports the
per-layer metrics.  Both check the outputs.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
OUT = ROOT / "perfbench" / "out"
FINGERPRINTS = ROOT / "perfbench" / "fingerprints.json"

SETUP_REPEATS = 7
#: window size for tick_ms_p99: ten ticks lie beyond each window's p99
P99_WINDOW_TICKS = 1000
#: share of --seconds the traced run spends on its untraced pass
UNTRACED_SHARE = 1 / 3


def _bootstrap():
    """Import btai from this checkout's sources, never from elsewhere."""
    if not (SRC / "btai" / "__init__.py").is_file() or not ORACLE.is_file():
        sys.exit(f"perfbench: {SRC / 'btai'} or {ORACLE} is missing; "
                 "run from the root of a btai checkout")
    sys.path.insert(0, str(SRC))
    import btai
    if SRC.resolve() not in Path(btai.__file__).resolve().parents:
        sys.exit(f"perfbench: btai was imported from {btai.__file__}, not {SRC}")


def _load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "note": ("shared machine: other tenants' load can vary between runs; "
                 "CPU pinning and CPU frequency control are not available"),
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TickProbe:
    """One timestamp per tick, taken on entry to ``World.observe``."""

    def __init__(self, world_cls):
        self.world_cls = world_cls
        self.original = world_cls.__dict__["observe"]
        self.stamps: list[int] = []
        stamps, clock, observe = self.stamps, time.perf_counter_ns, self.original

        def probed_observe(*args, **kwargs):
            stamps.append(clock())
            return observe(*args, **kwargs)

        self.probed = probed_observe

    def install(self):
        self.world_cls.observe = self.probed

    def uninstall(self):
        self.world_cls.observe = self.original

    def cost_ns(self, calls: int = 200_000) -> float:
        """Extra nanoseconds per call that the probe's wrapper adds, from
        timing a wrapped and a bare no-op call (best of five)."""
        stamps, clock = [], time.perf_counter_ns

        def bare():
            return None

        def wrapped(*args, **kwargs):
            stamps.append(clock())
            return bare(*args, **kwargs)

        def best(fn):
            times = []
            for _ in range(5):
                stamps.clear()
                t0 = clock()
                for _ in range(calls):
                    fn()
                times.append(clock() - t0)
            return min(times) / calls

        return max(best(wrapped) - best(bare), 0.0)


@dataclass
class LoopStats:
    attempted: int = 0
    failed: int = 0
    blocks: int = 0
    ticks: int = 0
    # per attempted episode, in order: (start ns, episode ns, tick ns...),
    # or None for an episode that raised
    timings: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def episode_ns(self) -> list:
        return [t[1] for t in self.timings if t is not None]

    @property
    def tick_ns(self) -> list:
        return [x for t in self.timings if t is not None for x in t[2:]]

    def scales(self, track):
        return track.scales([t[0] for t in self.timings if t is not None])

    def calibrated(self, track) -> "LoopStats":
        """The same run with every time scaled to the reference speed."""
        out = LoopStats(blocks=self.blocks, ticks=self.ticks)
        factors = iter(self.scales(track))
        for t in self.timings:
            if t is None:
                out.timings.append(None)
            else:
                f = next(factors)
                out.timings.append((t[0], *(x * f for x in t[1:])))
        return out

    @property
    def episodes_per_s(self) -> float:
        episodes = self.episode_ns
        return len(episodes) / (sum(episodes) / 1e9) if episodes else 0.0


def _count_records(counts: Counter, records):
    for r in records:
        counts["ticks"] += 1
        counts["visited"] += len(r["visited"])
        for verdict in r["selector"]:
            counts["pushes"] += len(verdict["pushed"])
            for call in verdict["calls"]:
                counts["rounds"] += 1
                counts["candidates"] += len(call["candidates"])


def closed_loop(workload, seed, check_result, track, *, seconds=None, blocks=None,
                probe=None, count_records=False) -> LoopStats:
    """Run whole blocks of episodes back to back, until ``seconds`` have
    passed or ``blocks`` blocks are done.  Each episode is timed on its own;
    generation, checking and speed calibration happen between the
    stopwatches."""
    from workloads import play
    stats = LoopStats()
    clock = time.perf_counter_ns
    stamps = probe.stamps if probe is not None else None
    start = clock()
    while True:
        if blocks is not None and stats.blocks >= blocks:
            break
        if seconds is not None and (clock() - start) / 1e9 >= seconds:
            break
        for ep in workload.block(seed, stats.blocks):
            stats.attempted += 1
            track.maybe_sample()
            if stamps is not None:
                stamps.clear()
            t0 = clock()
            try:
                sc, result = play(ep)
            except Exception as exc:  # an exception is a failed episode
                stats.timings.append(None)
                stats.fail(f"{ep.name}: {type(exc).__name__}: {exc}")
                continue
            t1 = clock()
            stats.ticks += result.ticks
            if stamps is not None:
                stamps.append(t1)
                stats.timings.append((t0, t1 - t0,
                                      *(b - a for a, b in zip(stamps, stamps[1:]))))
            else:
                stats.timings.append((t0, t1 - t0))
            problems = check_result(sc, result, workload.allowed_outcomes)
            if problems:
                stats.fail(f"{ep.name}: {'; '.join(problems)}")
            if count_records:
                _count_records(stats.counts, result.records)
        stats.blocks += 1
    return stats


def timed_setups(workload, track) -> tuple[list, list]:
    """Raw and calibrated seconds of each of SETUP_REPEATS set-ups."""
    starts, times = [], []
    for _ in range(SETUP_REPEATS):
        track.sample()
        t0 = time.perf_counter_ns()
        workload.setup()
        starts.append(t0)
        times.append((time.perf_counter_ns() - t0) / 1e9)
    track.sample()
    return times, [t * f for t, f in zip(times, track.scales(starts))]


def windowed_p99(ticks_by_episode) -> float:
    """Median over consecutive windows of at least P99_WINDOW_TICKS ticks of
    each window's 99th percentile.  A burst of load from other tenants lands
    in the tail, and this way it moves one window's tail, not the result."""
    windows, current = [], []
    for ticks in ticks_by_episode:
        current.extend(ticks)
        if len(current) >= P99_WINDOW_TICKS:
            windows.append(current)
            current = []
    if windows:
        windows[-1].extend(current)
    else:
        windows = [current]
    return float(np.median([percentile(w, 99) for w in windows]))


def end_to_end_metrics(setups, stats: LoopStats, rss: float) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "episodes_per_s": (stats.episodes_per_s, "1/s"),
        "episode_ms_p50": (percentile(stats.episode_ns, 50) / 1e6, "ms"),
        "episode_ms_p90": (percentile(stats.episode_ns, 90) / 1e6, "ms"),
        "tick_ms_p50": (percentile(stats.tick_ns, 50) / 1e6, "ms"),
        "tick_ms_p99": (windowed_p99(t[2:] for t in stats.timings if t is not None)
                        / 1e6, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(rec, traced: LoopStats, untraced: LoopStats,
                      gate, probe_ns: float, track) -> dict:
    """Layer times are scaled by the traced pass's median calibration."""
    import btai.inference as inference_mod
    scales = traced.scales(track)
    scale = float(np.median(scales)) if len(scales) else 1.0
    layers = rec.layer_times()
    counts = traced.counts
    ticks = counts["ticks"]
    rounds = counts["rounds"]
    episodes = len(traced.episode_ns)

    def total(name):
        return layers.get(name, {}).get("total_ns", 0.0) * scale

    def own(name):
        return layers.get(name, {}).get("self_ns", 0.0) * scale

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def us_per_tick(ns):
        return _ratio(ns, ticks) / 1e3

    sweeps = len(rec.sweep_iterations)
    horizon = inference_mod.DEFAULT_HORIZON
    cap = inference_mod.MAX_SWEEPS
    iterations = [n / horizon for n in rec.sweep_iterations]
    return {
        "scenario.load_ms": (_ratio(total("scenario.from_dict"),
                                    calls("scenario.from_dict")) / 1e6, "ms"),
        "world.observe_us": (us_per_tick(total("world.observe")), "us"),
        "world.step_us": (us_per_tick(total("world.step")), "us"),
        "domain.update_beliefs_us": (us_per_tick(total("domain.update_beliefs")), "us"),
        "domain.logical_state_us": (us_per_tick(total("domain.logical_state")), "us"),
        "domain.holds_calls": (_ratio(rec.holds_calls, ticks), "count"),
        "bt.tick_self_us": (us_per_tick(own("bt.tick")), "us"),
        "bt.nodes_visited": (_ratio(counts["visited"], ticks), "count"),
        "selector.adaptive_select_us": (us_per_tick(total("selector.adaptive_select")), "us"),
        "selector.self_us": (us_per_tick(own("selector.adaptive_select")), "us"),
        "selector.rounds_per_tick": (_ratio(rounds, ticks), "count"),
        "selector.pushes_per_tick": (_ratio(counts["pushes"], ticks), "count"),
        "selector.candidates_per_round": (_ratio(counts["candidates"], rounds), "count"),
        "selector.factor_build_us": (_ratio(total("selector.factorize"), rounds) / 1e3, "us"),
        "inference.round_us": (_ratio(total("inference.round"), rounds) / 1e3, "us"),
        "inference.round_self_us": (_ratio(own("inference.round"), rounds) / 1e3, "us"),
        "inference.sweep_calls_per_round": (_ratio(sweeps, rounds), "count"),
        "inference.sweep_us": (us_per_tick(total("inference.sweep")), "us"),
        "inference.sweep_iterations_mean": (_ratio(sum(iterations), sweeps), "count"),
        "inference.sweeps_at_cap_share": (
            _ratio(sum(1 for n in iterations if n >= cap), sweeps), "ratio"),
        "inference.free_energy_us": (us_per_tick(total("inference.free_energy")), "us"),
        "inference.expected_free_energy_us": (
            us_per_tick(total("inference.expected_free_energy")), "us"),
        "inference.model_average_us": (us_per_tick(total("inference.model_average")), "us"),
        "inference.policy_posterior_us": (us_per_tick(total("inference.policy_posterior")), "us"),
        "inference.preferences_satisfied_us": (
            us_per_tick(total("inference.preferences_satisfied")), "us"),
        "inference.sweep_repeat_share_tick": (_ratio(rec.sweep_repeats_tick, sweeps), "ratio"),
        "inference.sweep_repeat_share_episode": (
            _ratio(rec.sweep_repeats_episode, sweeps), "ratio"),
        "episode.self_us": (us_per_tick(own("episode.run")), "us"),
        "episode.make_record_us": (us_per_tick(total("episode.make_record")), "us"),
        "episode.write_trace_ms": (_ratio(total("episode.write_trace"), episodes) / 1e6, "ms"),
        "episode.trace_bytes_per_tick": (_ratio(gate.trace_bytes, gate.ticks), "B"),
        "trace.overhead_ratio": (_ratio(untraced.calibrated(track).episodes_per_s,
                                        traced.calibrated(track).episodes_per_s), "ratio"),
        "probe.tick_stamp_ns": (probe_ns, "ns"),
    }


def _print_metrics(metrics: dict):
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "classic", "noisy-trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-fingerprints", action="store_true",
                        help="store this run's reference-block fingerprints")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _bootstrap()
    from btai import world as world_mod
    import gate as gate_mod
    import workloads
    from calibrate import REFERENCE_NS, SpeedTrack
    from spans import SpanRecorder

    oracle = _load_oracle()
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "traces").mkdir(exist_ok=True)
    workload = workloads.make(args.workload, OUT)
    check = gate_mod.check_result

    track = SpeedTrack()
    raw_setups, setups = timed_setups(workload, track)
    probe = TickProbe(world_mod.World)
    probe_ns = probe.cost_ns()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "setup_s_raw": raw_setups, "setup_s_calibrated": setups}

    probe.install()
    gc.collect()
    if args.trace == 0:
        loop = closed_loop(workload, args.seed, check, track,
                           seconds=args.seconds, probe=probe)
        rss = peak_rss_mb()
        probe.uninstall()
        loops = [loop]
        calibrated = loop.calibrated(track)
        metrics = end_to_end_metrics(setups, calibrated, rss)
        report["raw_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in
                                 end_to_end_metrics(raw_setups, loop, rss).items()}
        report["pooled_tick_ms_p99"] = percentile(calibrated.tick_ns, 99) / 1e6
    else:
        untraced = closed_loop(workload, args.seed, check, track,
                               seconds=args.seconds * UNTRACED_SHARE, probe=probe)
        probe.uninstall()
        rec = SpanRecorder()
        rec.install()
        try:
            workload.setup()
            gc.collect()
            traced = closed_loop(workload, args.seed, check, track,
                                 blocks=untraced.blocks, count_records=True)
        finally:
            rec.uninstall()
        rec.write(OUT / f"spans-{args.workload}.jsonl")
        loops = [untraced, traced]
        report["spans"] = len(rec.columns["name"])
        report["unwrapped_entry_points"] = rec.missing
    gate = gate_mod.run_gate(workload, args.seed, oracle, OUT / "traces" / "gate.jsonl")
    if args.trace == 1:
        metrics = per_layer_metrics(rec, traced, untraced, gate, probe_ns, track)

    attempted = sum(s.attempted for s in loops) + gate.attempted
    failed = sum(s.failed for s in loops) + len(gate.failed)
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    reference = gate.fingerprints["reference"]
    expected = recorded.get(args.workload)
    reference["matches_recorded"] = (None if expected is None else all(
        reference[k] == expected[k] for k in ("trace_sha256", "decision_sha256")))
    if args.update_fingerprints:
        recorded[args.workload] = {k: reference[k] for k in
                                   ("episodes", "trace_sha256", "decision_sha256")}
        FINGERPRINTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")

    main_loop = loops[0]
    report.update({
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "episodes_timed": len(main_loop.episode_ns), "ticks_timed": len(main_loop.tick_ns),
        "blocks": main_loop.blocks,
        "gate": {"attempted": gate.attempted, "failed": len(gate.failed),
                 "oracle_rounds_checked": gate.oracle_rounds,
                 "rounds_recorded": gate.rounds_seen, "replays": gate.replays},
        "fingerprints": gate.fingerprints,
        "tick_probe_ns": probe_ns,
        "calibration": {"reference_ns": REFERENCE_NS, "samples": len(track.cost),
                        "median_kernel_ns": track.median_cost_ns()},
        "problems": [p for s in loops for p in s.problems] + gate.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(report, indent=2))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  {len(main_loop.episode_ns)} episodes, {len(main_loop.tick_ns) or main_loop.ticks}"
          f" ticks timed in {main_loop.blocks} blocks; set-up median of {SETUP_REPEATS}")
    _print_metrics(metrics)
    print(f"  fail_ratio  {failed / attempted:.6g} ({failed} of {attempted} episodes)")
    print(f"  tick probe  {probe_ns:.1f} ns per tick")
    print(f"  calibration kernel median {track.median_cost_ns() / 1e6:.3f} ms "
          f"(reference {REFERENCE_NS / 1e6:.3f} ms, {len(track.cost)} samples); "
          f"times above are scaled to the reference, raw ones are in the report")
    for label, fp in gate.fingerprints.items():
        print(f"  {label} fingerprint: trace {fp['trace_sha256'][:16]} "
              f"decisions {fp['decision_sha256'][:16]} ({fp['episodes']} episodes)")
    if reference["matches_recorded"] is False:
        print("  reference traces differ from perfbench/fingerprints.json")
    for problem in report["problems"][:5]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
