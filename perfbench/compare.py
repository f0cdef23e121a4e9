#!/usr/bin/env python3
"""Compare benchmark result files of a base and a head build.

    python3 perfbench/compare.py --base .bench_out/a/*.json --head .bench_out/b/*.json

Each file is a result written by bismo_perfbench (.bench_out/<workload>-seed<n>-
trace<t>.json).  Files are grouped by workload and trace mode; for every
metric the script prints the base and head medians and their ratio.  It
refuses (exit 2) to compare results whose stamps name a different FFT
backend, fusion mode, compiler, build type or core count: such numbers do
not measure the same build of the same machine.
"""

import argparse
import json
import statistics
import sys

SAME_BUILD = ("fft_backend", "fusion", "compiler", "build_type", "nproc")


def load(paths):
    results = [json.loads(open(p).read()) for p in paths]
    for path, result in zip(paths, results):
        result["path"] = path
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    base, head = load(args.base), load(args.head)

    reference = base[0]
    for result in base + head:
        for key in SAME_BUILD:
            if result["stamp"][key] != reference["stamp"][key]:
                print(f"refusing to compare: {result['path']} has {key}="
                      f"{result['stamp'][key]!r}, {reference['path']} has "
                      f"{reference['stamp'][key]!r}", file=sys.stderr)
                return 2

    groups = sorted({(r["workload"], r["trace"]) for r in base + head})
    for workload, trace in groups:
        side = {name: [r for r in results
                       if (r["workload"], r["trace"]) == (workload, trace)]
                for name, results in (("base", base), ("head", head))}
        print(f"== {workload} trace={int(trace)} "
              f"(base n={len(side['base'])}, head n={len(side['head'])})")
        names = []
        for r in side["base"] + side["head"]:
            names += [m for m in r["metrics"] if m not in names]
        for name in names:
            med = {}
            for key, results in side.items():
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                med[key] = statistics.median(values) if values else None
            unit = next(r["metrics"][name]["unit"]
                        for r in side["base"] + side["head"]
                        if name in r["metrics"])
            ratio = (med["head"] / med["base"]
                     if med["base"] and med["head"] is not None else None)
            print(f"  {name:28s} {fmt(med['base'])} -> {fmt(med['head'])} "
                  f"{unit:8s} x{fmt(ratio)}")
    return 0


def fmt(value):
    return f"{value:12.6g}" if value is not None else f"{'-':>12s}"


if __name__ == "__main__":
    sys.exit(main())
