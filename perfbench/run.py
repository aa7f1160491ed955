"""venttsel benchmark: runs CLI jobs of one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Each job is one `venttsel.cli.main([...])` call in a fresh child interpreter
(perfbench/child.py), with a generated config and a temporary `--out`
directory, run one after another (a closed loop with one caller) until
`--seconds` are spent; at least one job always runs. Every job's outputs are
checked (perfbench/checks.py). BLAS and OpenMP are pinned to one thread, the
CLI gets `--threads 1`, and each child runs on the allowed CPU that is least
contended when it starts (`pin_quietest_cpu`).

`--trace 0` reports the end-to-end metrics: median `wall_s`, `setup_s` (also
sampled by set-up-only children, so there are at least SETUP_SAMPLES per run)
and `peak_rss_mb`, plus `failed_frac` on a human-readable line.
`--trace 1` runs pairs of an untraced and a traced job, requires their outputs
to be identical, and reports the per-layer metrics of perfbench/spans.py.

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Each run also appends a record with the environment to
`--results` (default `.perfbench_work/results.jsonl`), which
perfbench/compare.py reads. Everything a run writes stays under
`.perfbench_work/` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 10
CALIBRATION_LOOP = 200_000
JOB_TIMEOUT_S = 150.0
# solve.json fields that depend on timing, not on the computed solution
TIMING_FIELDS = ("solve_seconds",)


def load_workloads() -> dict:
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def benchmark_metrics(section: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


def make_config(spec: dict, seed: int) -> dict:
    """The workload's config with `b` drawn by the seed rule in workloads.json."""
    config = json.loads(json.dumps(spec["config"]))
    if seed == 0:
        config["b"] = 1.0
    else:
        rng = random.Random(seed)
        config["b"] = [rng.uniform(0.5, 2.0) for _ in config["polygon"]]
    config["seed"] = seed
    return config


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("VENTTSEL_LOG", "PYTHONPATH")}
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        TMPDIR=str(WORK / "tmp"),
    )
    return env


def run_job(command: str, config: dict, *, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one CLI job in a child process; returns its result and outputs.

    The result has `rc`, `error`, `setup_s`, `wall_s`, `peak_rss_mb`, the
    output files as text under `outputs`, and `layers` and `spans` when traced.
    """
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="job-") as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = [command, "--config", str(tmp / "config.json"), "--out", str(out), "--threads", "1"]
        job = {
            "src": str(SRC),
            "argv": argv,
            "trace": trace,
            "setup_only": setup_only,
            "result": str(tmp / "result.json"),
        }
        job["spawned_at"] = perf_counter()
        (tmp / "job.json").write_text(json.dumps(job), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(tmp / "job.json")],
                env=_child_env(),
                cwd=tmp,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"rc": None, "error": f"job exceeded {JOB_TIMEOUT_S} s", "outputs": {}}
        if proc.returncode != 0 or not (tmp / "result.json").exists():
            return {"rc": None, "error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}", "outputs": {}}
        result = json.loads((tmp / "result.json").read_text(encoding="utf-8"))
        if result["rc"] not in (None, 0) and not result["error"]:
            result["error"] = f"venttsel exited {result['rc']}: {proc.stderr[-2000:]}"
        result["peak_rss_mb"] = result.pop("maxrss_kb") * 1024 / 1e6
        result["outputs"] = read_outputs(out)
        return result


def read_outputs(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir()) if p.is_file()}


def comparable(outputs: dict) -> dict:
    """Outputs with the timing fields removed, for bitwise comparison."""
    result = dict(outputs)
    if "solve.json" in result:
        data = json.loads(result["solve.json"])
        for key in TIMING_FIELDS:
            data.pop(key, None)
        result["solve.json"] = json.dumps(data, sort_keys=True)
    return result


def pin_quietest_cpu(cpus: set[int]) -> int:
    """Pin this process, and so the next child, to the CPU of `cpus` that runs a
    fixed Python loop fastest right now.

    On a shared host one CPU is often slowed by other tenants for tens of
    seconds at a time, and which one changes; the guest scheduler cannot see
    it. Choosing before each child keeps jobs off the contended CPU.
    """
    timings = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        start = perf_counter()
        sum(i * i for i in range(CALIBRATION_LOOP))
        timings.append((perf_counter() - start, cpu))
    cpu = min(timings)[1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure(
    spec: dict,
    seed: int,
    seconds: float,
    trace: bool,
    reference: dict | None,
    settings: dict,
    cpus: set[int] | None = None,
) -> dict:
    """One benchmark run of one workload.

    Returns `attempted` and `failed` job counts, the `problems` found, the
    metric `samples` (one per job or traced pair; for `setup_s` one per child,
    set-up-only children included) and the `spans` of the last traced job, as
    [name, parent index, start, end, count] rows. With `cpus`, each child is
    pinned to the quietest of them (`pin_quietest_cpu`).
    """
    config = make_config(spec, seed)
    command = spec["command"]

    def job(**kwargs) -> dict:
        if cpus:
            pin_quietest_cpu(cpus)
        return run_job(command, config, **kwargs)

    t0 = perf_counter()
    job(setup_only=True)  # fills bytecode caches; not timed
    jobs, problems, setups, durations = [], [], [], []
    samples: dict[str, list] = {}
    spans = []

    def record(result: dict, *, check: bool = True) -> bool:
        found = []
        if result.get("error"):
            found = [result["error"].strip().splitlines()[-1]]
        elif check:
            found = checks.check_outputs(spec, config, result["outputs"], reference, settings)
        jobs.append(result)
        result["failed"] = bool(found)
        problems.extend(found)
        if "setup_s" in result:
            setups.append(result["setup_s"])
        return not found

    while True:
        start = perf_counter()
        plain = job()
        if record(plain) and not trace:
            samples.setdefault("wall_s", []).append(plain["wall_s"])
            samples.setdefault("peak_rss_mb", []).append(plain["peak_rss_mb"])
        if trace:
            traced = job(trace=True)
            if record(traced) and not plain["failed"]:
                if comparable(traced["outputs"]) != comparable(plain["outputs"]):
                    traced["failed"] = True
                    problems.append("traced outputs differ from untraced outputs")
                else:
                    for key, value in traced["layers"].items():
                        samples.setdefault(key, []).append(value)
                    samples.setdefault("trace.overhead_s", []).append(traced["wall_s"] - plain["wall_s"])
                    samples.setdefault("trace.wall_s", []).append(traced["wall_s"])
                    spans = traced["spans"]
        if not trace and len(setups) < SETUP_SAMPLES:
            # spread set-up samples over the run rather than bunching them at its end
            record(job(setup_only=True), check=False)
        durations.append(perf_counter() - start)
        if perf_counter() - t0 + statistics.median(durations) > seconds:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        if not record(job(setup_only=True), check=False):
            break
    if not trace:
        samples["setup_s"] = setups
    return {
        "attempted": len(jobs),
        "failed": sum(result["failed"] for result in jobs),
        "problems": problems,
        "samples": samples,
        "spans": spans,
        "elapsed_s": perf_counter() - t0,
    }


def env_record() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }
    for package in ("numpy", "scipy"):
        try:
            info[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            info[package] = None
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the version is informative only
        info["blas"] = None
    return info


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "venttsel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def load_reference() -> dict:
    path = BENCH / "reference.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report(name: str, run: dict, section: str) -> dict:
    """Print one line per metric and return the metrics object of the result.

    Raises ValueError when a metric has no sample, which happens only when
    every job of the run failed.
    """
    metrics = {}
    for metric in benchmark_metrics(section):
        values = run["samples"].get(metric["name"], [])
        if not values:
            raise ValueError(f"{name}: no sample of {metric['name']} ({run['failed']} of {run['attempted']} jobs failed)")
        value = statistics.median(values)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        share = ""
        if metric["name"].endswith(".self_s") and run["samples"].get("trace.wall_s"):
            share = f"  {value / statistics.median(run['samples']['trace.wall_s']):.1%} of traced wall_s"
        print(
            f"{name}  {metric['name']:<42} {value:>14.6g} {metric['unit']:<6} "
            f"median of n={len(values)}  min={min(values):.6g} max={max(values):.6g}{share}"
        )
    print(f"{name}  {'failed_frac':<42} {run['failed'] / run['attempted']:>14.6g} {'1':<6} n={run['attempted']}")
    for problem in run["problems"]:
        print(f"{name}  FAILED CHECK: {problem}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=WORK / "results.jsonl")
    args = parser.parse_args(argv)
    if not (SRC / "venttsel" / "cli.py").is_file():
        print(f"venttsel sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # turn a termination request into an exception, so that subprocess.run
    # kills and reaps the running child and the temp dirs are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpus = os.sched_getaffinity(0)
    names = sorted(workloads["workloads"]) if args.workload == "all" else [args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    reference = load_reference()
    env = env_record()
    env["cpus"] = sorted(cpus)
    env["src_sha256"] = _src_digest()
    print("env " + json.dumps(env, sort_keys=True))
    results = {}
    for name in names:
        spec = workloads["workloads"][name]
        run = measure(spec, args.seed, args.seconds, bool(args.trace), reference.get(name), workloads["checks"], cpus)
        try:
            metrics = report(name, run, section)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        results[name] = {
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        }
        args.results.parent.mkdir(parents=True, exist_ok=True)
        if run["spans"]:
            path = WORK / f"spans-{name}-seed{args.seed}.json"
            path.write_text(json.dumps(run["spans"]), encoding="utf-8")
            print(f"{name}  spans of the last traced job: {path.relative_to(ROOT)}")
        with open(args.results, "a", encoding="utf-8") as fh:
            record = dict(workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace, env=env)
            record.update(results[name], problems=run["problems"], samples=run["samples"], elapsed_s=run["elapsed_s"])
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
