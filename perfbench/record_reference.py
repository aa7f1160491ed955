"""Record the seed-0 reference outputs that perfbench/checks.py compares against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one untimed job per workload (all of them by default) at seed 0 and
writes its solution-derived numbers to perfbench/reference.json. Re-record only
in a change that redefines the benchmark, and say why: the reference is what
makes the seed-0 output check independent of the code being timed.
"""
import json
import sys

import checks
import run


def main(names) -> int:
    workloads = run.load_workloads()
    reference = run.load_reference()
    for name in names or sorted(workloads["workloads"]):
        spec = workloads["workloads"][name]
        config = run.make_config(spec, 0)
        job = run.run_job(spec["command"], config)
        problems = [job["error"]] if job.get("error") else checks.check_outputs(spec, config, job["outputs"], None, workloads["checks"])
        if problems:
            print(f"{name}: not recorded: {problems}", file=sys.stderr)
            return 1
        reference[name] = checks.solution_values(job["outputs"])
        print(f"{name}: recorded {len(reference[name])} values")
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
