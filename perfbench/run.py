"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # seconds-long self-test

Run from the root of a checkout.  Samples run in fresh interpreters
(``sample.py``, one process, ``jobs=1``); inside a sample every round
builds fresh workload objects, so memo tables start empty as they do
for a CLI user.  Workloads:

* ``campaign`` -- ``run_campaign(klass="C", jobs=1)`` into a fresh
  cache directory, then replayed warm through a fresh runner;
* ``optimize`` -- ``optimize_gear_plan(delta=0.05)`` on FT.C.8 and
  CG.W.8; the warm pass re-scores the winners and frontiers;
* ``sweep-n1024`` -- ``ParallelRunner(jobs=1).map_sweep`` over EP, FT
  and CG at N=1024, cold into a fresh cache, then warm.

With ``--trace 0`` the command runs rounds until ``--seconds`` have
passed (at least one), adds set-up-only samples until it has three to
nine set-up times, and reports the mean cold and warm pass and the
median set-up time, each scaled to a reference host speed (see
:func:`at_reference_speed`), and the median peak RSS.  With
``--trace 1`` it runs one plain and one traced sample and reports the
per-layer metrics of the traced one (see ``spans.py``).  Outputs are
checked against the digests pinned in ``digests.json``; any mismatch or
failed sample makes the command exit 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import FALLBACK_REASONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
WORKLOADS = ("campaign", "optimize", "sweep-n1024")
#: every run must end within this many seconds of starting
DEADLINE_S = 170.0
#: seconds ``sample.reference_unit`` takes on a quiet 2-vCPU VM; host
#: times are reported for a host that runs it this fast
REFERENCE_UNIT_S = 0.0004
#: set-up times per run at least (set-up-only samples make up the rest),
#: and up to MAX_SETUPS while they add up to less than SETUP_BUDGET_S
SETUPS = 3
MAX_SETUPS = 9
SETUP_BUDGET_S = 6.0

END_TO_END = {
    "wall_s": "s",
    "warm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "table2_delay_err": "ratio",
    "table2_energy_err": "ratio",
    "opt_norm_energy": "ratio",
}

#: per-layer span metrics: name -> (pass, span, field)
_FIELDS = {"calls": 0, "s": 1, "self_s": 2}
SPAN_METRICS = {
    f"{prefix}{span}.{field}": (pass_, span, field)
    for pass_, prefix, span, fields in (
        ("setup_layers", "setup.", "compile.compile_workload", ("s", "calls")),
        ("layers", "", "compile.compile_workload", ("s", "calls")),
        ("layers", "", "compile.classify_channels", ("s", "calls")),
        ("layers", "", "straightline.run_straightline", ("self_s", "calls")),
        ("layers", "", "straightline.run_batch", ("self_s", "calls")),
        ("layers", "", "engine.run", ("s", "calls")),
        ("layers", "", "store.cache_key", ("s", "calls")),
        ("layers", "", "store.get", ("s", "calls")),
        ("layers", "", "store.put", ("s", "calls")),
        ("layers", "", "parallel.map", ("self_s",)),
        ("layers", "", "parallel.map_sweep", ("self_s",)),
        ("layers", "", "framework.run_workload", ("self_s", "calls")),
        ("layers", "", "optimize.optimize_gear_plan", ("self_s",)),
        ("layers", "", "trace.analyze", ("s",)),
        ("warm_layers", "warm.", "store.get", ("s", "calls")),
        ("warm_layers", "warm.", "engine.run", ("s", "calls")),
        ("warm_layers", "warm.", "parallel.map", ("self_s",)),
        ("warm_layers", "warm.", "parallel.map_sweep", ("self_s",)),
        ("warm_layers", "warm.", "framework.run_workload", ("self_s",)),
        ("warm_layers", "warm.", "straightline.run_batch", ("self_s",)),
    )
    for field in fields
}

_REASONS = FALLBACK_REASONS + ("other",)
#: per-layer counters: name -> (pass, unit, span whose wrapper counts it;
#: None when the program reports it only if it exposes the counter)
COUNT_METRICS = {
    "straightline.run_batch.points": ("layers", "count", "straightline.run_batch"),
    **{
        f"straightline.batch.{k}": ("layers", "count", "straightline.run_batch")
        for k in ("quotient_points", "per_rank_points", "scalar_points",
                  "splits", "reruns")
    },
    **{
        f"straightline.fallback.{r}": ("layers", "count", "straightline.run_batch")
        for r in _REASONS
    },
    "straightline.lowering.lowered": ("layers", "count", None),
    "straightline.lowering.reused": ("layers", "count", None),
    "straightline.controller_runs": ("layers", "count", "parallel.close"),
    "store.hits": ("layers", "count", "store.get"),
    "store.bytes_written": ("layers", "bytes", "store.put"),
    "warm.store.hits": ("warm_layers", "count", "store.get"),
    "optimize.candidates": ("layers", "count", "optimize.optimize_gear_plan"),
    "optimize.batches": ("layers", "count", "optimize.optimize_gear_plan"),
    "optimize.rounds": ("layers", "count", "optimize.optimize_gear_plan"),
    "optimize.FT.plans_per_s": ("layers", "1/s", "optimize.optimize_gear_plan"),
    "optimize.CG.plans_per_s": ("layers", "1/s", "optimize.optimize_gear_plan"),
}
DERIVED_METRICS = {
    "straightline.batch.yield": "ratio",
    "unattributed_s": "s",
    "warm.unattributed_s": "s",
    "trace_overhead_frac": "ratio",
    "sweep.EP.points_per_s": "1/s",
    "sweep.FT.points_per_s": "1/s",
    "sweep.CG.points_per_s": "1/s",
}
PER_LAYER = {
    **{name: "count" if field == "calls" else "s"
       for name, (_p, _s, field) in SPAN_METRICS.items()},
    **{name: spec[1] for name, spec in COUNT_METRICS.items()},
    **DERIVED_METRICS,
}


class SampleFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, seed: int, profile: str) -> None:
        self.seed = seed
        self.profile = profile
        self.started = time.perf_counter()
        self.n = 0
        self.tmp = ROOT / ".bench_tmp"

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def python(self, argv: list[str]) -> str:
        """Run ``python3 argv`` with ``src`` importable; its stdout."""
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=env,
                capture_output=True, text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired as exc:
            raise SampleFailed(f"no result within the run's deadline: {exc}")
        if proc.returncode != 0:
            raise SampleFailed(proc.stderr.strip()[-3000:])
        return proc.stdout

    def sample(self, workload: str, *flags: str) -> dict:
        self.n += 1
        cache = self.tmp / f"{os.getpid()}-{self.n}"
        try:
            out = self.python([
                str(HERE / "sample.py"), "--workload", workload,
                "--seed", str(self.seed), "--profile", self.profile,
                "--cache-dir", str(cache), *flags,
            ])
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        try:
            self.tmp.rmdir()
        except OSError:
            pass


def verify(samples: list[dict], pinned: dict, pin: bool) -> tuple[int, int]:
    """(attempted, failed) over every output check of ``samples``."""
    attempted = failed = 0
    for s in samples:
        for name, digest, ok in s["checks"]:
            if digest is not None:
                if pin:
                    pinned[name] = digest
                ok = pinned.get(name) == digest
            attempted += 1
            if not ok:
                failed += 1
                print(f"check failed: {name}", file=sys.stderr)
    return attempted, failed


def at_reference_speed(passes: list[dict]) -> float:
    """Mean job seconds of ``passes``, at the reference host speed.

    Each piece of a pass carries its job seconds and the host's speed
    sampled over them (``sample.HostSpeed``).  The run's job seconds
    are divided by the weighted mean time of the reference unit over
    the same seconds and multiplied by :data:`REFERENCE_UNIT_S`: a
    figure for a host that runs the unit in that time, which a busy
    neighbour on a shared host does not change.
    """
    job = sum(t[0] for p in passes for t in p.values())
    weighted = sum(t[1] for p in passes for t in p.values())
    weight = sum(t[2] for p in passes for t in p.values())
    return job / len(passes) * REFERENCE_UNIT_S * weight / weighted


def end_to_end(samples: list[dict], setups: list[tuple]) -> dict:
    """Job and set-up times at the reference speed; median RSS."""
    quality = samples[0]["quality"]
    return {
        "wall_s": at_reference_speed([p for s in samples for p in s["cold"]]),
        "warm_wall_s": at_reference_speed(
            [p for s in samples for p in s["warm"]]),
        "setup_s": statistics.median(
            setup * REFERENCE_UNIT_S / unit for setup, unit in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        **{k: quality[k] for k in
           ("table2_delay_err", "table2_energy_err", "opt_norm_energy")},
    }


def per_layer(traced: dict, plain: dict) -> dict:
    """Per-layer metrics of one traced sample; ``plain`` is untraced."""
    installed = set(traced["layers"]["installed"])
    out: dict = {}
    for name, (pass_, span, field) in SPAN_METRICS.items():
        if span in installed:
            entry = traced[pass_]["spans"].get(span, [0, 0.0, 0.0])
            out[name] = entry[_FIELDS[field]]
    for name, (pass_, _unit, governs) in COUNT_METRICS.items():
        counts = traced[pass_]["counts"]
        counter = name.replace("warm.", "", 1)
        if governs is None:
            if counter in counts:
                out[name] = counts[counter]
        elif governs in installed:
            out[name] = counts.get(counter, 0)
    points = out.get("straightline.run_batch.points")
    reruns = out.get("straightline.batch.reruns")
    if points is not None and reruns is not None:
        out["straightline.batch.yield"] = (
            (points - reruns) / points if points else 1.0
        )
    out["unattributed_s"] = traced["wall_s"] - traced["layers"]["root_s"]
    out["warm.unattributed_s"] = (
        traced["warm_wall_s"] - traced["warm_layers"]["root_s"]
    )
    out["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    for code in ("EP", "FT", "CG"):
        key = f"sweep.{code}.points_per_s"
        out[key] = traced["rates"].get(key, 0.0)
    return out


def emit(result: dict, units: dict, stamp: dict) -> None:
    for name, value in result["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {units.get(name, '')}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_frac':<44} {frac:>16.6g} ratio")
    print(json.dumps({"stamp": stamp}))
    result["metrics"] = {
        name: {"value": value, "unit": units.get(name, "")}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))


def measure(bench: Bench, workload: str, seconds: float, trace: bool,
            pinned: dict, pin: bool) -> tuple[dict, dict, dict]:
    """One run of ``workload``: (result, metric units, stamp)."""
    samples, setups, errors, host = [], [], 0, {}
    t0 = time.perf_counter()
    try:
        if trace:
            plain = bench.sample(workload, "--first")
            traced = bench.sample(workload, "--traced")
            samples = [plain, traced]
            metrics = per_layer(traced, plain)
            units = PER_LAYER
        else:
            # a sample runs rounds until the run's time is up; another
            # starts only if a round still fits
            while not samples or (
                seconds - (time.perf_counter() - t0) > samples[-1]["round_s"]
            ):
                left = seconds - (time.perf_counter() - t0)
                samples.append(bench.sample(
                    workload, "--budget", f"{left:.3f}",
                    *([] if samples else ["--first"]),
                ))
            setups = [(s["setup_s"], s["setup_unit_s"]) for s in samples]
            while len(setups) < SETUPS or (
                len(setups) < MAX_SETUPS
                and sum(t for t, _u in setups) < SETUP_BUDGET_S
            ):
                s = bench.sample(workload, "--setup-only")
                setups.append((s["setup_s"], s["setup_unit_s"]))
            metrics = end_to_end(samples, setups)
            units = END_TO_END
            cold = [p for s in samples for p in s["cold"]]
            host = {
                "host_wall_s": sum(t[0] for p in cold for t in p.values())
                / len(cold),
                "host_unit_s": sum(t[1] for p in cold for t in p.values())
                / sum(t[2] for p in cold for t in p.values()),
            }
    except SampleFailed as exc:
        print(f"sample failed: {exc}", file=sys.stderr)
        errors = 1
        metrics, units = {}, {}
    attempted, failed = verify(samples, pinned, pin)
    result = {
        "correct": failed + errors == 0,
        "attempted": attempted + errors,
        "failed": failed + errors,
        "metrics": metrics,
    }
    stamp = dict(samples[0]["stamp"], samples=len(samples),
                 rounds=sum(len(s["cold"]) for s in samples),
                 setups=len(setups), **host) if samples else {}
    return result, units, stamp


def smoke(bench: Bench, workloads, digests: dict, pin: bool) -> int:
    """Every workload at class T, small N: plain and traced, checked."""
    ok = True
    summary: dict = {}
    for workload in workloads:
        pinned = digests.setdefault("smoke", {}).setdefault(workload, {})
        result, units, stamp = measure(bench, workload, 0, True, pinned, pin)
        ok &= result["correct"]
        m = result["metrics"]
        print(f"{workload}: correct={result['correct']} "
              f"checks={result['attempted']} "
              f"unattributed={m.get('unattributed_s', float('nan')):.4f}s "
              f"trace_overhead={m.get('trace_overhead_frac', float('nan')):+.3f}")
        summary[workload] = result["correct"]
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long self-test: class T, small N, "
                             "every workload, traced and checked")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output digests as the "
                             "expected ones (after a deliberate model change)")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(args.seed, "smoke" if args.smoke else "full")
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    try:
        # compile the package's bytecode once, outside every sample
        bench.python(["-c", "import repro.experiments.campaign, repro.optimize"])
        if args.smoke:
            code = smoke(bench, [args.workload] if args.workload else WORKLOADS,
                         digests, args.pin)
        else:
            pinned = digests.setdefault("full", {}).setdefault(args.workload, {})
            result, units, stamp = measure(
                bench, args.workload, args.seconds, bool(args.trace),
                pinned, args.pin,
            )
            emit(result, units, stamp)
            code = 0 if result["correct"] else 1
    except SampleFailed as exc:
        print(f"cannot start: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()
    if args.pin:
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
