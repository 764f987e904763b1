"""Rewrite reference.json: the answers of the current program on the
reference seed, for every synthetic workload.

    python3 perfbench/make_reference.py

Run it only when the program's output is meant to change; the benchmark
compares later runs on the reference seed against this file.
"""

import json
import shutil

import check
import run
import workloads


def main():
    dsm = run.import_program()
    reference = {}
    for workload in workloads.WORKLOADS:
        if workload == "cli_golden":
            continue
        work_dir = run.OUT / f"reference-{workload}"
        pool = workloads.build(workload, run.REFERENCE_SEED, work_dir, run.SCENARIOS)
        entries = {}
        for req in sorted(pool, key=lambda r: r.rid):
            rc, out, err, _ = run.execute(dsm.cli.main, req.argv)
            if req.kind == "listing":
                entries[req.rid] = {"rc": rc, "sha256": check.digest(out)}
                continue
            entries[req.rid] = {"rc": rc}
            if rc == 0:
                doc = json.loads(out)
                reason = check.invariants(doc)
                if reason:
                    raise SystemExit(f"{req.rid}: {reason}")
                entries[req.rid]["tasks"] = check.reference_entry(doc)
        shutil.rmtree(work_dir, ignore_errors=True)
        reference[workload] = entries
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
