"""Run every workload in fresh processes and summarise the metrics.

    python3 bench/repeat.py                          # each workload once, plus a traced run
    python3 bench/repeat.py --runs 10 --sets 2 --out bench/baseline.json

Each run is ``bench/run.py`` in its own single-threaded process, over every
workload of ``BENCHMARK.json`` for its ``run_seconds``. Set ``j`` uses seeds
``first + j*runs`` to ``first + (j+1)*runs - 1``, and the runs of a set
alternate between the workloads seed by seed. Per set and workload the
summary gives the median and quartiles of every end-to-end metric and their
spread (interquartile range over median); later sets are compared with the
first. A spread over a metric's bound, or a later median worse than the
first by more than the bound, is a problem and makes the exit status 1; a
spread over a third of the bound is noted. The traced run of each
workload, at the first seed, gives the per-layer table. Its document
digest must equal that of the untraced run at the same seed, and its
derived self times (the differences in ``DERIVED``) must not be negative.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600
# per-layer times computed as differences; a negative one means a layer was counted twice
DERIVED = ("factorisation.self_s", "series.self_s", "trace.untimed_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One fresh process; returns its info line merged with its result line."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {done.returncode}, no result")
    if done.stderr:
        sys.stderr.write(done.stderr)
    info_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(info_line) | json.loads(result_line)


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run all benchmark workloads and summarise them.")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload and set, one seed each")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path, help="also write the runs and the summary here as JSON")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    runs: list[dict] = []
    problems: list[str] = []
    notes: list[str] = []
    for s in range(args.sets):
        for seed in range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs):
            for workload in names:
                r = run_once(workload, seed, seconds, 0) | {"set": s}
                runs.append(r)
                shown = " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items())
                print(f"set {s} {workload} seed {seed}: passes={r['passes']} failed={r['failed']} {shown}", flush=True)

    summary: dict[str, dict] = {}
    print(f"\n{'workload':20} {'metric':14} {'unit':6} " + " ".join(f"{'set ' + str(s) + ' median [q1, q3] spread':>44}" for s in range(args.sets)))
    for workload in names:
        mine = [r for r in runs if r["workload"] == workload]
        failed = sum(r["failed"] for r in mine)
        attempted = sum(r["attempted"] for r in mine)
        summary[workload] = {"failed_share": failed / attempted, "attempted": attempted, "metrics": {}}
        if failed:
            problems.append(f"{workload}: {failed} of {attempted} inputs failed")
        for name, m in e2e.items():
            per_set = [summarise([r["metrics"][name]["value"] for r in mine if r["set"] == s]) for s in range(args.sets)]
            summary[workload]["metrics"][name] = {"unit": m["unit"], "sets": per_set}
            cells = []
            for st in per_set:
                q = f"[{st['q1']:.5g}, {st['q3']:.5g}] {st['spread']:6.1%}" if "spread" in st else ""
                cells.append(f"{st['median']:>12.5g} {q:>31}")
            print(f"{workload:20} {name:14} {m['unit']:6} " + " ".join(cells))
            for s, st in enumerate(per_set):
                spread = st.get("spread", 0)
                if spread > m["bound"]:
                    problems.append(f"{workload} {name}: set {s} spread {spread:.1%} > bound {m['bound']:.0%}")
                elif spread > m["bound"] / 3:
                    notes.append(f"{workload} {name}: set {s} spread {spread:.1%} is over a third of the bound")
                worse = (st["median"] / per_set[0]["median"] - 1) * (1 if m["better"] == "lower" else -1)
                if worse > m["bound"]:
                    problems.append(f"{workload} {name}: set {s} median worse than set 0 by {worse:.1%}")
        print(f"{workload:20} failed_share   ratio  {failed / attempted:12.5g}   ({attempted} inputs attempted)")

    traced: dict[str, dict] = {}
    print()
    for workload in names:
        r = run_once(workload, args.first_seed, seconds, 1)
        values = {k: v["value"] for k, v in r["metrics"].items()}
        traced[workload] = {"seed": args.first_seed, "failed": r["failed"], "doc_digest": r["doc_digest"],
                            "metrics": r["metrics"]}
        untraced = next(u for u in runs if u["workload"] == workload and u["seed"] == args.first_seed)
        if untraced["doc_digest"] == r["doc_digest"]:
            digest = "equals the untraced run's"
        else:
            digest = "DIFFERS from the untraced run's"
            problems.append(f"{workload}: traced and untraced document digests differ")
        if r["failed"]:
            problems.append(f"{workload}: traced run failed {r['failed']} inputs")
        for name in DERIVED:
            if values[name] < 0:
                problems.append(f"{workload}: traced {name} is negative ({values[name]:.4g} s)")
        pipeline = values["trace.pipeline_s"]
        print(f"traced {workload} seed {args.first_seed}: pipeline {pipeline:.4g} s, "
              f"overhead {values['trace.overhead_share']:+.1%}, digest {digest}")
        for name, v in r["metrics"].items():
            share = f"{v['value'] / pipeline:7.1%}" if v["unit"] == "s" else ""
            print(f"  {name:42} {v['value']:>12.5g} {v['unit']:6} {share}")

    env = runs[0]["environment"]
    if args.out:
        args.out.write_text(
            json.dumps({"environment": env, "seconds": seconds, "runs": runs, "summary": summary,
                        "traced": traced, "problems": problems, "notes": notes}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    print("\nenvironment:", json.dumps(env, sort_keys=True))
    for n in notes:
        print("note:", n)
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
