#!/usr/bin/env python3
"""Seeded benchmark of the fescycle pipeline.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Workloads (see workloads.py): train, finetune, sessions.  A run generates the
workload's inputs from --seed (the set-up, done SETUP_REPEATS times), then
repeats the workload's fixed job for --seconds, checks every output, and
prints a report.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.  The
full report, with the run record, is written to
.perfbench_out/<workload>-seed<seed>-trace<trace>.json.

--trace 1 runs one untraced job first and traced jobs after it: the traced
jobs must write byte-identical outputs, and trace_overhead is the traced
over the untraced job time.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# one process, one BLAS thread; FESRL_SEED would override every seed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FESRL_SEED", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_JOBS = 2  # byte-identity needs two jobs


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import fescycle
        from fescycle import biomech, cli, nets, offline, pattern, sac, training  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fescycle from {SRC}: {exc}")
    if not Path(fescycle.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: fescycle imported from {fescycle.__file__}, not {SRC}")
    return fescycle


fes = import_program()
import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Chain  # noqa: E402

IMPORT_S = time.perf_counter() - T0


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    traced: bool
    outputs: dict  # file name -> SHA-256
    chain: Chain
    test_return: float | None

    @property
    def outputs_sha256(self) -> str:
        return checks.fingerprint(self.outputs)


def run_record() -> dict:
    git = {"git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        def git_out(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=60, check=True).stdout.strip()
        try:
            git = {"git_sha": git_out("rev-parse", "HEAD"),
                   "git_dirty": bool(git_out("status", "--porcelain"))}
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    return {
        **git,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_fescycle_lines": sum(len(p.read_text().splitlines())
                                  for p in sorted((SRC / "fescycle").glob("*.py"))),
    }


def set_up(workload, work: Path, seed: int):
    """Generate the inputs SETUP_REPEATS times; setup_s counts the imports
    once plus the median generation time."""
    chain = Chain()
    prepare_s, deferred = [], []
    for i in range(SETUP_REPEATS):
        d = work / f"setup{i}"
        d.mkdir(parents=True)
        t = time.perf_counter()
        inputs, deferred = workload.prepare(chain, d, seed)
        prepare_s.append(time.perf_counter() - t)
    for name, thunk in deferred:
        chain.check(name, thunk)
    return inputs, chain, IMPORT_S + statistics.median(prepare_s), prepare_s


def run_jobs(workload, inputs, work: Path, seed: int, seconds: float, trace: bool):
    """Repeat the job while another fits in `seconds`; with `trace` every
    job after the first runs traced.  Checks run untraced after each job."""
    tracer = spans.Tracer() if trace else None
    jobs = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and bool(jobs)
        d = work / f"job{len(jobs)}"
        d.mkdir(parents=True)
        with checks.replay_buffers(fes.sac) as buffers:
            chain = Chain(tracer if traced else None, d, buffers)
            if traced:
                tracer.install(fes)
            t, cpu = time.perf_counter(), time.process_time()
            deferred = workload.job(chain, inputs, d, seed)
            wall_s, cpu_s = time.perf_counter() - t, time.process_time() - cpu
            if traced:
                tracer.uninstall()
        for name, thunk in deferred:
            chain.check(name, thunk)
        try:
            test_return = checks.best_test_return(d / "curve.csv")
        except (OSError, checks.CheckFailed):
            test_return = None  # no curve in this workload, or its check failed
        jobs.append(Job(wall_s, cpu_s, traced, checks.output_hashes(d), chain, test_return))
        shutil.rmtree(d)
        elapsed = time.perf_counter() - start
        if len(jobs) >= MIN_JOBS and (
                elapsed + statistics.median(j.wall_s for j in jobs) > seconds):
            return jobs, tracer


def whole_run_checks(jobs, tracer) -> Chain:
    chain = Chain()
    prints = {j.outputs_sha256 for j in jobs}
    chain.check("outputs byte-identical across jobs" + (" (untraced and traced)" if tracer else ""),
                lambda: checks.require(len(prints) == 1, f"{len(prints)} distinct output hashes"))
    if tracer is not None:
        steps = sum(c.sim_steps for j in jobs if j.traced for c in j.chain.commands)
        traced = tracer.calls["biomech.sim_step"]
        chain.check("traced sim_step calls match sim_step_count()",
                    lambda: checks.require(traced == steps, f"{traced} != {steps}"))
    return chain


def main() -> int:
    parser = argparse.ArgumentParser(description="fescycle benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        inputs, setup, setup_s, prepare_s = set_up(workload, work, args.seed)
        jobs, tracer = run_jobs(workload, inputs, work, args.seed, args.seconds,
                                bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    chains = [setup, whole_run_checks(jobs, tracer)] + [j.chain for j in jobs]
    attempted = sum(c.ops for c in chains)
    failures = [f for c in chains for f in c.failures]
    rpms = [r for j in jobs for r in j.chain.eval_rpms()]
    test_returns = [j.test_return for j in jobs if j.test_return is not None]
    quality = {
        "failed_ratio": len(failures) / attempted,
        "test_return": test_returns[-1] if test_returns else 0.0,
        "eval_rpm": statistics.fmean(rpms) if rpms else 0.0,
    }
    untraced_s = statistics.median(j.wall_s for j in jobs if not j.traced)
    values = {"setup_s": setup_s, "job_s": untraced_s, "peak_rss_mb": peak_rss_mb}
    table = []
    if tracer is not None:
        traced_jobs = [j for j in jobs if j.traced]
        traced_s = statistics.median(j.wall_s for j in traced_jobs)
        values = tracer.metrics(len(traced_jobs), traced_s)
        values["trace_overhead"] = traced_s / untraced_s
        values.update({f"quality.{k}": v for k, v in quality.items()})
        table = tracer.roadmap(args.workload)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        sys.exit(f"perfbench: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "record": run_record(),
        "setup": {"import_s": IMPORT_S, "prepare_s": prepare_s},
        "jobs": [{"wall_s": j.wall_s, "cpu_s": j.cpu_s, "traced": j.traced,
                  "outputs_sha256": j.outputs_sha256} for j in jobs],
        "output_files_sha256": jobs[0].outputs,
        "quality": quality, "failures": failures, "values": values, "roadmap": table,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print_report(args, jobs, values, quality, report["record"], table)
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def print_report(args, jobs, values, quality, record, table) -> None:
    times = ", ".join(f"{j.wall_s:.3f}{'*' if j.traced else ''}" for j in jobs)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(jobs)} jobs [{times}] s" + (" (* traced)" if args.trace else ""))
    print(f"record: {json.dumps(record)}")
    print(f"outputs sha256 {jobs[0].outputs_sha256[:16]}..., byte-identical across jobs: "
          f"{len({j.outputs_sha256 for j in jobs}) == 1}")
    if not args.trace:
        rows = [("setup_s", values["setup_s"], "s"), ("job_s", values["job_s"], "s"),
                ("peak_rss_mb", values["peak_rss_mb"], "MB"),
                ("failed_ratio", quality["failed_ratio"], "ratio"),
                ("test_return", quality["test_return"], "return"),
                ("eval_rpm", quality["eval_rpm"], "rpm")]
        for name, value, unit in rows:
            print(f"  {name:<14} {value:>12.4f} {unit}")
        return
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6g}")
    print("ROADMAP item 3 baseline vs this run:")
    for label, baseline, measured in table:
        print(f"  {label:<48} {baseline:>10}  {measured:>12}")


if __name__ == "__main__":
    sys.exit(main())
