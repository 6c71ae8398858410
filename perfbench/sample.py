"""One benchmark sample: a fresh interpreter running rounds of one job.

Started by ``run.py`` with ``PYTHONPATH=src`` from the checkout root.  A
sample sets its workload up (``setup_s``: interpreter start to ready),
then starts rounds until ``--budget`` seconds have passed since it
started (at least one).  Every round builds fresh inputs -- new workload
objects, compiled outside the timed region -- so every memo table of the
program (compiled programs, lowered gear plans, quotient programs,
channel classes, all keyed by workload or compiled program) starts empty
for it, as it does for a CLI user.  A round runs the job cold into a
fresh cache directory, then replays it warm.  Each pass times its pieces
(one per code, plus ``rest``: the part of the job no piece covers) and,
unless traced, samples the host's speed while they run (``HostSpeed``).

The first round's outputs are checked against pinned digests and the
warm pass against the cold one; with ``--first`` the optimizer winners
are also re-run on the event engine and the model is scored against
Table 2.  Every later round's outputs must equal the first round's.  The
sample prints one JSON object as its last line.

    PYTHONPATH=src python3 perfbench/sample.py --workload campaign \\
        --seed 0 --cache-dir .bench_tmp/x [--budget 20] [--first] \\
        [--profile smoke] [--traced | --setup-only]
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: the paper's performance constraint (delay <= 1.05 x no-DVS), the
#: default of the CLI ``optimize`` and ``campaign --optimal``.
DELTA = 0.05

PROFILES = {
    # what the benchmark measures
    "full": {
        "klass": "C",
        # (code, class, nprocs).  CG.C.8 takes ~40 s per search on a
        # 2-vCPU VM, too long to sample several times per run; CG.W.8
        # keeps its behaviour (frontier rounds, divergent_control splits,
        # scalar reruns of most candidates) at ~5 s.
        "optimize": (("FT", "C", 8), ("CG", "W", 8)),
        "sweep_nprocs": 1024,
        # (class, seeds) per code.  CG.C.1024 takes ~6 s to compile and
        # ~2.5 s to lower its five gear plans, so a run could time only
        # two rounds; CG.W.1024 keeps the thousand-node path (compile at
        # scale, quotient batch over its two rank halves) at a third of
        # that.
        "sweep": {"EP": ("C", 16), "FT": ("C", 16), "CG": ("W", 4)},
    },
    # the seconds-long self-test of the same code paths
    "smoke": {
        "klass": "T",
        "optimize": (("FT", "T", 8), ("CG", "T", 8)),
        "sweep_nprocs": 16,
        "sweep": {"EP": ("T", 2), "FT": ("T", 2), "CG": ("T", 2)},
    },
}


def canonical(m) -> list:
    """Every summary field of a ``Measurement``, in a fixed order."""
    return [
        m.workload, m.strategy, m.elapsed_s, m.energy_j,
        sorted(m.per_node_energy_j.items()), m.dvs_transitions,
        sorted(m.time_at_mhz.items()), m.acpi_energy_j, m.baytech_energy_j,
        m.extras,
    ]


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def best_within_delta(points) -> float:
    """Lowest normalized energy among ``(delay, energy)`` pairs whose
    normalized delay meets the constraint."""
    return min(e for d, e in points if d <= 1.0 + DELTA + 1e-9)


def reference_unit() -> float:
    """Host seconds of one fixed unit of interpreter and small-array work.

    It stands for the program's own mix (dicts, floats, short numpy
    calls), so contention on the host slows it about as much as the
    program.
    """
    import numpy as np

    t0 = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(2000):
        k = i & 63
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] % 7.0
    a = np.arange(64.0)
    for _ in range(40):
        a = np.maximum(a * 1.0000001, a[::-1])
    return time.perf_counter() - t0


def host_speed(seconds: float) -> float:
    """Mean :func:`reference_unit` time over about ``seconds``."""
    t_end = time.perf_counter() + seconds
    units = [reference_unit()]
    while time.perf_counter() < t_end:
        units.append(reference_unit())
    return sum(units) / len(units)


class HostSpeed:
    """The host's speed, sampled while a job runs.

    On a shared host, contention slows the program down by up to 2x,
    in bursts from milliseconds to minutes long.  An interval timer
    interrupts the job every :attr:`EVERY_S` to time one
    :func:`reference_unit`, weighted by the job time since the last
    sample.  :meth:`now` is the job's clock, which leaves the sampling
    out, and :meth:`stop` gives the weighted sums: the job's time
    divided by the weighted mean unit time is what the program costs in
    units, whatever share of the job the host was slowed down for.
    """

    EVERY_S = 0.025

    def __init__(self) -> None:
        self.paused = 0.0
        self.weighted = self.weight = 0.0
        self.last = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _tick(self, signum, frame) -> None:
        if self.last is None:  # a tick that interrupted a tick
            return
        t, last, self.last = time.perf_counter(), self.last, None
        unit = reference_unit()
        t_end = time.perf_counter()
        self.weighted += (t - last) * unit
        self.weight += t - last
        self.paused += t_end - t
        self.last = t_end

    def start(self) -> None:
        self.weighted = self.weight = 0.0
        self.last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)

    def stop(self) -> tuple[float, float]:
        """``(sum of weight x unit seconds, sum of weights)`` since
        :meth:`start`."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if not self.weight:  # a job shorter than one interval
            self._tick(None, None)
        return self.weighted, self.weight


#: samples the host's speed during untraced passes
SPEED = None


def clock(times: dict, piece: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; ``times[piece]`` is ``[job seconds, sum
    of weight x unit seconds, sum of weights]`` (see :class:`HostSpeed`;
    the sums are 0 when the pass is traced)."""
    if SPEED is not None:
        SPEED.start()
    t0 = job_clock()
    try:
        return fn(*args, **kwargs)
    finally:
        t1 = job_clock()
        speed = SPEED.stop() if SPEED is not None else (0.0, 0.0)
        times[piece] = [t1 - t0, *speed]


def job_clock() -> float:
    """Host seconds, without the time spent sampling the host's speed."""
    return SPEED.now() if SPEED is not None else time.perf_counter()


def seconds(times: dict) -> float:
    """The job seconds of a pass timed by :func:`timed_pass`."""
    return sum(t[0] for t in times.values())


def timed_pass(job, *args) -> tuple[object, dict]:
    """``job(*args, times)`` and its per-piece times; ``rest`` is the
    job's time that no piece covers."""
    times: dict = {}
    t0 = job_clock()
    out = job(*args, times)
    total = job_clock() - t0
    times["rest"] = [total - seconds(times), 0.0, 0.0]
    return out, times


def table2_quality(klass: str, seed: int) -> dict:
    """The model's accuracy against the published Table 2.

    Runs through the current runner, so inside a campaign's cache it
    only reads.  ``opt_norm_energy`` here is the cheapest EXTERNAL gear
    within the constraint, averaged over the eight codes.
    """
    from repro.experiments import tables
    from repro.experiments.validation import score_table2

    rows = tables.table2(klass=klass, seed=seed)
    fidelity = score_table2(rows)
    best = [
        best_within_delta(v for k, v in row.columns.items() if k != "auto")
        for row in rows.values()
    ]
    return {
        "table2_delay_err": fidelity.mean_delay_error,
        "table2_energy_err": fidelity.mean_energy_error,
        "opt_norm_energy": sum(best) / len(best),
    }


class Workload:
    """setup(profile, seed) -> state; cold(state, cache_dir, times) and
    warm(state, cache_dir, cold, times) -> outputs; digests(state, cold)
    -> pinned output digests; verify(state, cold, warm, full) -> (checks,
    quality metrics)."""

    #: warm replays per round: short passes are repeated so that the
    #: host's speed is sampled over more of them
    warm_repeats = 1

    def score(self, state, cache_dir) -> dict:
        return table2_quality(state["klass"], state["seed"])

    def rates(self, state, times) -> dict:
        return {}


class Campaign(Workload):
    """``run_campaign(jobs=1)`` into a fresh cache, then replayed warm."""

    warm_repeats = 2

    def setup(self, profile, seed):
        from repro.experiments import campaign  # noqa: F401

        return {"klass": profile["klass"], "seed": seed}

    def cold(self, state, cache_dir, times):
        from repro.experiments import campaign

        return clock(
            times, "campaign", campaign.run_campaign,
            klass=state["klass"], seed=state["seed"], jobs=1,
            cache_dir=cache_dir,
        )

    def warm(self, state, cache_dir, cold, times):
        return self.cold(state, cache_dir, times)

    def body(self, state, report: str) -> str:
        """The report without its wall-time footer, seed-neutral."""
        body = report[: report.rindex("\n---\n")]
        return body.replace(
            f"(class {state['klass']}, seed {state['seed']})",
            f"(class {state['klass']}, seed *)", 1,
        )

    def digests(self, state, cold) -> dict:
        return {"report": digest(self.body(state, cold))}

    def verify(self, state, cold, warm, full):
        checks = [("warm_equals_cold", None,
                   self.body(state, warm) == self.body(state, cold))]
        return checks, {}

    def score(self, state, cache_dir) -> dict:
        """Table 2 from the campaign's own cache: reads only."""
        from repro.experiments.parallel import ParallelRunner, use

        with ParallelRunner(jobs=1, cache_dir=cache_dir) as runner, use(runner):
            return table2_quality(state["klass"], state["seed"])


class Optimize(Workload):
    """``optimize_gear_plan(delta=0.05)`` on FT.C.8 and CG.W.8; no cache.

    There is no result cache to replay, so the warm pass re-scores each
    code's winner and frontier in one ``run_batch`` call with the
    process-global memo tables the cold pass filled.
    """

    warm_repeats = 2

    def setup(self, profile, seed):
        from repro.hardware.opoints import PENTIUM_M_TABLE
        from repro.optimize import search  # noqa: F401
        from repro.workloads.compile import compile_workload
        from repro.workloads.npb import ALL_CODES

        workloads = {
            code: ALL_CODES[code](klass=klass, nprocs=n)
            for code, klass, n in profile["optimize"]
        }
        for w in workloads.values():
            compile_workload(w, PENTIUM_M_TABLE.fastest.frequency_hz)
        return {"klass": profile["klass"], "seed": seed, "workloads": workloads}

    def cold(self, state, cache_dir, times):
        from repro.optimize import search

        return {
            code: clock(times, code, search.optimize_gear_plan,
                        w, delta=DELTA, seed=state["seed"])
            for code, w in state["workloads"].items()
        }

    def warm(self, state, cache_dir, cold, times):
        from repro.sim import straightline

        return {
            code: clock(
                times, code, straightline.run_batch,
                state["workloads"][code],
                [(c.strategy, state["seed"]) for c in [res.best, *res.frontier]],
            )
            for code, res in cold.items()
        }

    def digests(self, state, cold) -> dict:
        return {
            f"{code}.winner_and_frontier": digest(
                [canonical(res.baseline)]
                + [[list(c.assignment), canonical(c.measurement)]
                   for c in [res.best, *res.frontier]]
            )
            for code, res in cold.items()
        }

    def verify(self, state, cold, warm, full):
        from repro.core import framework

        checks = []
        for code, res in cold.items():
            plans = [res.best, *res.frontier]
            checks.append((
                f"{code}.warm_equals_cold", None,
                digest([canonical(m) for m in warm[code]])
                == digest([canonical(c.measurement) for c in plans]),
            ))
            if not full:
                continue
            event = framework.run_workload(
                state["workloads"][code], res.best.strategy,
                seed=state["seed"], engine="event",
            )
            checks.append((
                f"{code}.winner_equals_event_engine", None,
                canonical(event) == canonical(res.best.measurement),
            ))
        best = [r.best.norm_energy for r in cold.values()]
        return checks, {"opt_norm_energy": sum(best) / len(best)}


class Sweep(Workload):
    """``ParallelRunner(jobs=1).map_sweep`` at N=1024, cold then warm.

    EP and FT run every EXTERNAL gear and every single-phase INTERNAL
    policy; CG every EXTERNAL gear; each crossed with seeds.
    """

    # a round recompiles at N=1024 (~3 s), so a run has few rounds; the
    # warm replay is cheap, so each round repeats it
    warm_repeats = 4

    def setup(self, profile, seed):
        from repro.core.strategies.external import ExternalStrategy
        from repro.core.strategies.internal import InternalStrategy, PhasePolicy
        from repro.experiments.parallel import RunTask
        from repro.hardware.opoints import PENTIUM_M_TABLE
        from repro.workloads.compile import compile_workload
        from repro.workloads.npb import ALL_CODES

        mhzs = PENTIUM_M_TABLE.frequencies_mhz()
        fastest = max(mhzs)
        tasks = {}
        for code, (klass, n_seeds) in profile["sweep"].items():
            w = ALL_CODES[code](klass=klass, nprocs=profile["sweep_nprocs"])
            compile_workload(w, PENTIUM_M_TABLE.fastest.frequency_hz)
            strategies = [ExternalStrategy(mhz=m) for m in mhzs]
            if code != "CG":
                strategies += [
                    InternalStrategy(PhasePolicy({phase}, m, fastest))
                    for phase in w.phases
                    for m in mhzs
                    if m != fastest
                ]
            seeds = [seed * 100 + i for i in range(n_seeds)]
            tasks[code] = [RunTask(w, s, sd) for s in strategies for sd in seeds]
        return {"klass": profile["klass"], "seed": seed, "tasks": tasks,
                "fastest": fastest}

    def cold(self, state, cache_dir, times):
        from repro.experiments.parallel import ParallelRunner

        with ParallelRunner(jobs=1, cache_dir=cache_dir) as runner:
            return {
                code: clock(times, code, runner.map_sweep, tasks)
                for code, tasks in state["tasks"].items()
            }

    def warm(self, state, cache_dir, cold, times):
        return self.cold(state, cache_dir, times)

    def digests(self, state, cold) -> dict:
        return {f"{code}.measurements": digest([canonical(m) for m in ms])
                for code, ms in cold.items()}

    def verify(self, state, cold, warm, full):
        checks = [
            (f"{code}.warm_equals_cold", None, pinned == d)
            for (code, d), pinned in zip(
                self.digests(state, warm).items(),
                self.digests(state, cold).values(),
            )
        ]
        best = []
        for code, ms in cold.items():
            base = next(
                m for t, m in zip(state["tasks"][code], ms)
                if getattr(t.strategy, "mhz", None) == state["fastest"]
            )
            best.append(best_within_delta(m.normalized_against(base) for m in ms))
        return checks, {"opt_norm_energy": sum(best) / len(best)}

    def rates(self, state, times) -> dict:
        return {f"sweep.{code}.points_per_s": len(tasks) / times[code][0]
                for code, tasks in state["tasks"].items()}


WORKLOADS = {"campaign": Campaign, "optimize": Optimize, "sweep-n1024": Sweep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="start rounds until this many seconds have "
                             "passed since the interpreter started")
    parser.add_argument("--traced", action="store_true",
                        help="record per-layer spans and counters")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--first", action="store_true",
                        help="also re-run optimizer winners on the event "
                             "engine and score the model against Table 2")
    args = parser.parse_args(argv)

    global SPEED
    recorder = None
    if args.traced:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    workload = WORKLOADS[args.workload]()
    profile = PROFILES[args.profile]
    state = workload.setup(profile, args.seed)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s}
    if recorder is not None:
        out["setup_layers"] = recorder.take()
    # the host's speed just after set-up, over as long as set-up took
    out["setup_unit_s"] = host_speed(min(setup_s, 1.0))
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if recorder is None:
        SPEED = HostSpeed()
    cache = Path(args.cache_dir)
    cold, times = timed_pass(workload.cold, state, cache / "r0")
    out["cold"] = [times]
    out["wall_s"] = seconds(times)
    if recorder is not None:
        out["layers"] = recorder.take()
    out["warm"] = []
    for _ in range(1 if args.traced else workload.warm_repeats):
        warm, times = timed_pass(workload.warm, state, cache / "r0", cold)
        out["warm"].append(times)
    out["warm_wall_s"] = min(seconds(t) for t in out["warm"])
    if recorder is not None:
        out["warm_layers"] = recorder.take()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = workload.digests(state, cold)
    checks, quality = workload.verify(state, cold, warm, args.first)
    checks += [(name, d, None) for name, d in first.items()]
    if args.first:
        quality = {**workload.score(state, cache / "r0"), **quality}
    rates = workload.rates(state, out["cold"][0])
    round_s = setup_s + out["wall_s"] + sum(seconds(t) for t in out["warm"])
    del state, cold, warm

    n = 1
    while time.perf_counter() - T_START < args.budget:
        t0 = time.perf_counter()
        gc.collect()
        state = workload.setup(profile, args.seed)
        cold, times = timed_pass(workload.cold, state, cache / f"r{n}")
        out["cold"].append(times)
        for _ in range(workload.warm_repeats):
            _warm, times = timed_pass(workload.warm, state, cache / f"r{n}", cold)
            out["warm"].append(times)
        checks.append((f"round{n}_equals_first", None,
                       workload.digests(state, cold) == first))
        del state, cold, _warm
        shutil.rmtree(cache / f"r{n}", ignore_errors=True)
        n += 1
        round_s = time.perf_counter() - t0
    out["round_s"] = round_s
    import numpy

    out.update(
        checks=checks,
        quality=quality,
        rates=rates,
        stamp={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "workload": args.workload,
            "seed": args.seed,
            "profile": args.profile,
        },
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
