"""Fast self-test of the benchmark at toy sizes (a few seconds).

Runs every workload untraced and traced on tiny models and checks that:

* the result line has exactly the keys the benchmark contract names, and
  the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
  per_layer (traced) list, each a finite number with the listed unit;
* every run is correct and attempted at least one operation;
* span self times are non-negative and every span lies inside its parent,
  so a parent's direct children never add up to more than the parent;
* an operation that raises is counted as failed and reported by type and
  message.

Usage, from the repository root: ``python3 perfbench/selftest.py``
"""

from __future__ import annotations

import json
import math
import sys

import run

TOY = dict(
    copy_len=6, copy_batch=2, long_payload=15, long_batch=1, decode_tokens=24, decode_batch=2,
    decode_prompt=4, decode_d_model=32, late_early_window=8,
    verify_once=("param-tying",), verify_repeat=("softmax-recovery", "pseudo-query", "causality"),
)


def span_problems(tracer) -> list[str]:
    spans = tracer.spans
    problems = [f"negative self time in {spans[i][0]}" for i, ns in enumerate(tracer.self_ns()) if ns < 0]
    for name, start, end, parent in spans:
        if end < start:
            problems.append(f"{name} ends before it starts")
        if parent >= 0:
            pname, pstart, pend, _ = spans[parent]
            if start < pstart or end > pend:
                problems.append(f"{name} lies outside its parent {pname}")
    return problems


def metric_problems(label, result, expected) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    got = result["metrics"]
    if list(got) != [m["name"] for m in expected]:
        problems.append(f"{label}: metric names differ from BENCHMARK.json: {sorted(set(got) ^ {m['name'] for m in expected})}")
    for m in expected:
        v = got.get(m["name"])
        if v is None:
            continue
        if v["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {v['unit']!r}, BENCHMARK.json says {m['unit']!r}")
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{label}: {m['name']} value {v['value']!r} is not a finite number")
    return problems


def failure_problems(sizes) -> list[str]:
    """An operation that raises is counted and reported, never swallowed."""
    import workloads

    def broken(self, *args, **kwargs):
        raise ValueError("injected")

    orig = workloads.tm.ToyLM.step
    workloads.tm.ToyLM.step = broken
    try:
        record = run.run("decode_stream", seed=3, seconds=0.01, trace=False, sizes=sizes, probes=0)
    finally:
        workloads.tm.ToyLM.step = orig
    result = record["result"]
    seen = any(f["type"] == "ValueError" and f["message"] == "injected" for f in record["failures"])
    if result["correct"] or result["failed"] < 1 or not seen:
        return [f"injected failure not reported: {result}, {record['failures']}"]
    return []


def main() -> int:
    run.prepare()
    from workloads import Sizes

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sizes = Sizes(**TOY)
    problems = []
    for workload in run.WORKLOAD_NAMES:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            record = run.run(workload, seed=3, seconds=0.01, trace=trace, sizes=sizes, probes=1)
            result = json.loads(json.dumps(record["result"]))
            problems += metric_problems(label, result, bench["per_layer" if trace else "end_to_end"])
            if trace:
                problems += [f"{label}: {p}" for p in span_problems(record["tracer"])]
                if not record["tracer"].spans:
                    problems.append(f"{label}: no spans recorded")
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    problems += failure_problems(sizes)
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
