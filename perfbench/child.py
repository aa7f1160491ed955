"""One benchmark job in a fresh interpreter: `python child.py JOB.json`.

The job file names the repository's `src` directory, the `venttsel` CLI
arguments, the parent's `perf_counter` reading just before it started this
process, whether to trace, and where to write the result. The child times the
`venttsel.cli.run` call that `venttsel.cli.main` makes:

- setup_s: from the parent's spawn time to the start of `cli.run`, which covers
  interpreter start, importing venttsel and validating the config;
- wall_s: the `cli.run` call, from the validated config to the written outputs.

With `"setup_only": true` the job stops at the start of `cli.run`, so set-up
can be sampled without running the command. The result JSON also holds the
exit code, `ru_maxrss` and, when traced, the per-layer metrics.
"""
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import venttsel.cli as cli

    times = {}
    run = cli.run

    def timed_run(command, config):
        times["start"] = perf_counter()
        try:
            return 0 if job.get("setup_only") else run(command, config)
        finally:
            times["end"] = perf_counter()

    cli.run = timed_run
    recorder = None
    if job.get("trace"):
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    result = {"rc": None, "error": None}
    try:
        result["rc"] = cli.main(job["argv"])
    except Exception:  # noqa: BLE001 - the parent counts the job as failed
        result["error"] = traceback.format_exc()
    if "start" in times:
        result["setup_s"] = times["start"] - job["spawned_at"]
        result["wall_s"] = times["end"] - times["start"]
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder.spans)
        result["spans"] = recorder.spans
    tmp = job["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
