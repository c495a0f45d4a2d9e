"""Regenerate bench/reference.json, the fingerprint of every episode any
seed of any workload can run, at both scales.

Only run this when a change is meant to alter results, and say so with
the reason; a pure speed-up must leave the file unchanged.

Usage, from the repository root:
    python3 bench/record.py
"""

import json
import sys

import run


def main() -> int:
    run.require_source()
    import workloads

    out_dir = run.ROOT / ".bench_out" / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    episodes = {}
    for scale in workloads.EPISODE_T_END:
        for workload in workloads.WORKLOADS:
            calls = workloads.reference_plan(workload, scale)
            specs = workloads.setup(calls)
            result = workloads.run_round(calls, specs, out_dir)
            for key, fp, _ in result.episodes:
                episodes[key] = fp
            print(f"{scale} {workload}: {len(result.episodes)} episodes", flush=True)
    doc = {"about": "Per-episode fingerprints: metric (final error in cm or tracking "
                    "MSE in cm^2) at repr precision, logged rows, failure reason, and "
                    "sha256 of the float64 bytes of u then q. Compared bitwise.",
           "machine": run.machine_facts(),
           "episodes": dict(sorted(episodes.items()))}
    (run.BENCH / "reference.json").write_text(json.dumps(doc, indent=1) + "\n",
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
