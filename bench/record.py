"""Record the reference report digests for the default seed.

    python3 bench/record.py --workload structured --rounds 40

Runs the given number of rounds untraced, checks every output as a
benchmark run does, and writes ``bench/reference/<workload>.json``: one line
per round holding the digest of each job's exit status and report (without
``timing_ms``).  Runs with the default seed compare against these lines, so
record them only from a commit whose reports are known to be right.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.jobs.WORKLOADS, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    cli, _ = run.set_up(args.workload, run.DEFAULT_SEED)
    import checks

    results = run.run_rounds(cli, checks, args.workload, run.DEFAULT_SEED, rounds=args.rounds)
    bad = [r for r in results if r.problem]
    for r in bad:
        print(f"FAILED {r.job.round}.{r.job.index} {r.job.kind}: {r.problem}", file=sys.stderr)
    if bad or results[-1].job.round + 1 != args.rounds:
        print("nothing recorded", file=sys.stderr)
        return 1
    lines = []
    for r in results:
        if r.job.index == 0:
            lines.append([])
        lines[-1].append(r.digest)
    out = run.BENCH / "reference" / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": run.DEFAULT_SEED,
                   "rounds": [" ".join(line) for line in lines]}, handle, indent=0)
        handle.write("\n")
    print(f"recorded {len(lines)} rounds of {args.workload} in {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
