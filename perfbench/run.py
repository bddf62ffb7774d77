"""mrpairs benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload scan_7x2500 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; mrpairs is imported from its
`src/` and nowhere else. The run times passes of the workload until
`--seconds` have gone by (at least two passes), checks every pass's
outputs, and prints one JSON object as the last line of standard output:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. Earlier lines carry machine facts, a summary and the name of
every failed check. BLAS and OpenMP are pinned to one thread. Pass and
set-up times are scaled by readings of the host's speed taken around them
(see `Reference` and perfbench/README.md); the raw times are printed too.
"""

from __future__ import annotations

import os

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in _THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_STARTS = 5  # fresh interpreters timed for setup_s
# A speed reading of the reference kernels on the host the benchmark was
# defined on (2 vCPUs of a shared Xeon VM) when that host ran at full speed;
# timed operations are scaled to it.
REFERENCE_S = 0.008
REFERENCE_REPS = 3  # runs of each reference kernel in one speed reading

END_TO_END_UNITS = {"pass_s": "s", "pass_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for the self-test"
    )
    parser.add_argument(
        "--setup-child", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def import_workloads():
    """Import mrpairs from this checkout's src/ only; exit non-zero if it is absent."""
    if not (SRC / "mrpairs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mrpairs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mrpairs

    if Path(mrpairs.__file__).resolve().parent != SRC / "mrpairs":
        sys.exit(f"perfbench: imported mrpairs from {mrpairs.__file__}, not {SRC}")
    import workloads

    return workloads


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "mrpairs").glob("*.py"))
    )
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in _THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": src_lines,
        "load": "closed loop, 1 client",
    }


def setup_child(args) -> None:
    """Import mrpairs and build the inputs, then say so; a fresh interpreter."""
    workloads = import_workloads()
    workdir = WORK / f"setup-{os.getpid()}"
    workloads.WORKLOADS[args.workload](args.seed, args.tiny, str(workdir))
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


def time_setup(args, reference) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its inputs being built,
    raw and scaled to the reference host."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times, scaled_times = [], []
    before = reference.read()[0]
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up child failed with exit code {code}")
        after = reference.read()[0]
        times.append(elapsed)
        scaled_times.append(scaled(elapsed, before, after))
        before = after
    return times, scaled_times


class Reference:
    """Two fixed kernels, independent of mrpairs, that read the host's speed.

    Other tenants of a shared host slow this process by up to half, in
    spells of a few seconds to minutes. The kernels run just before and just
    after each timed operation; the operation's time over the mean of the
    two readings follows the program, not the spell it ran in.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.random.default_rng(0).standard_normal((400, 8))
        self.y = self.x @ np.arange(8.0)
        self.readings = []  # (wall s, CPU s) of every reading

    @staticmethod
    def _interpreter() -> int:
        acc = 0
        for i in range(60000):
            acc += i * i % 7
        return acc

    def _least_squares(self) -> float:
        for _ in range(80):  # small QR fits, as in the OLS layer
            q, r = self.np.linalg.qr(self.x)
            beta = self.np.linalg.solve(r, q.T @ self.y)
        return float(beta[0])

    def read(self) -> tuple[float, float]:
        """Wall and CPU seconds of the kernels now: each one's fastest run, summed."""
        wall = cpu = 0.0
        for kernel in (self._interpreter, self._least_squares):
            runs = []
            for _ in range(REFERENCE_REPS):
                c0, t0 = cpu_seconds(), time.perf_counter()
                kernel()
                runs.append((time.perf_counter() - t0, cpu_seconds() - c0))
            wall += min(w for w, _ in runs)
            cpu += min(c for _, c in runs)
        self.readings.append((wall, cpu))
        return wall, cpu


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` as they would read on the reference host at full speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


class PassClock:
    """Times a pass in stages and reads the host's speed between stages.

    A workload calls `split` between the stages of a long pass, so that each
    stage is scaled by readings taken close to it; the readings themselves
    are not timed.
    """

    def __init__(self, reference: Reference, before: tuple[float, float]):
        self.reference, self.before = reference, before
        self.wall = self.cpu = self.wall_scaled = self.cpu_scaled = 0.0
        self.c0, self.t0 = cpu_seconds(), time.perf_counter()

    def split(self) -> None:
        seconds, cpu_s = time.perf_counter() - self.t0, cpu_seconds() - self.c0
        after = self.reference.read()
        self.wall += seconds
        self.cpu += cpu_s
        self.wall_scaled += scaled(seconds, self.before[0], after[0])
        self.cpu_scaled += scaled(cpu_s, self.before[1], after[1])
        self.before = after
        self.c0, self.t0 = cpu_seconds(), time.perf_counter()


def timed_pass(workload, index: int, failures: list, clock: PassClock):
    """One pass, timed by `clock`; its output, or None if it raised."""
    try:
        out = workload.run_pass(index, clock.split)
    except Exception as exc:  # the program failed; the benchmark counts it and goes on
        out = None
        failures.append(f"{type(exc).__name__}: {exc}")
    clock.split()
    return out


def summary_line(name: str, values: list[float]) -> str:
    return (f"{name}: min {min(values):.6g} median {statistics.median(values):.6g} "
            f"max {max(values):.6g} n={len(values)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child:
        setup_child(args)
        return 0
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    facts = machine_facts()
    reference = Reference()
    setup_times, setup_scaled = time_setup(args, reference)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, str(workdir))
        outputs, raised = [], []
        wall, cpu = [], []                  # untraced passes
        wall_scaled, cpu_scaled = [], []    # the same, scaled to the reference host
        traced_wall, tracer = [], None      # traced passes
        traced_scaled = []
        traced_bytes = 0                    # files the traced passes wrote
        output_bytes = getattr(workload, "output_bytes", None)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        before = reference.read()
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < 2 or time.perf_counter() < deadline:
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install(index)
            clock = PassClock(reference, before)
            try:
                out = timed_pass(workload, index, raised, clock)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                traced_wall.append(clock.wall)
                traced_scaled.append(clock.wall_scaled)
                if output_bytes is not None and out is not None:
                    traced_bytes += output_bytes(out)
            else:
                wall.append(clock.wall)
                cpu.append(clock.cpu)
                wall_scaled.append(clock.wall_scaled)
                cpu_scaled.append(clock.cpu_scaled)
            outputs.append(out)
            before = clock.before
            index += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = workload.check(outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # A known-defect probe is reported, not counted: the workload's own
    # operations must all succeed, so `failed` measures regressions only.
    probes = [op for op in ops if op.known_defect]
    ops = [op for op in ops if not op.known_defect]
    failed = [op for op in ops if op.failures]
    correct = not raised and not failed
    print("facts " + json.dumps(facts, sort_keys=True))
    for message, count in Counter(raised).items():
        print(f"FAILED {count} passes raised {message}")
    by_check = defaultdict(list)
    for op in failed:
        for check in op.failures:
            by_check[check].append(op.label)
    for check, labels in by_check.items():
        print(f"FAILED {check} on {len(labels)} of {len(ops)} operations; first: {labels[0]}")
    for op in probes:
        state = "still fails " + ", ".join(op.failures) if op.failures else "now passes"
        print(f"KNOWN DEFECT {state}: {op.label}")
    print(summary_line("raw pass_s", wall))
    print(summary_line("raw pass_cpu_s", cpu))
    print(summary_line("raw setup_s", setup_times))
    print(summary_line("reference reading s", [w for w, _ in reference.readings]))
    print(summary_line("pass_s", wall_scaled))
    print(summary_line("setup_s", setup_scaled))
    print(f"fail_ratio: {len(failed)}/{len(ops)} operations failed")

    if tracer is None:
        metrics = {
            "pass_s": statistics.median(wall_scaled),
            "pass_cpu_s": statistics.median(cpu_scaled),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        overhead = statistics.median(traced_scaled) - statistics.median(wall_scaled)
        metrics = tracer.layer_metrics(traced_wall, overhead, traced_bytes)
        units = tracing.per_layer_units()
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(str(trace_path), traced_wall)
        print(f"spans: {len(tracer.names)} written to {trace_path.relative_to(ROOT)}")
        if tracer.missing:
            print("missing trace targets: " + ", ".join(tracer.missing))
        for name, err in tracer.hook_errors.items():
            print(f"trace counter hook for {name} failed: {err}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
