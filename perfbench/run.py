"""boundedattn benchmark: one workload per run, end-to-end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload train_copy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: train_copy, train_long, decode_stream, verify (see workloads.py).
BLAS is pinned to one thread before numpy is imported.  The library is
imported from ``src/`` next to this directory, never from site-packages.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics
(``setup_s``, ``op_ref_p50``: median op time over a reference loop's time,
and ``peak_rss_mb``; see README.md).
``--trace 1`` measures untraced for half the time, then traced for the other
half, and reports the per-layer metrics and the tracing overhead.  Every run
checks the outputs, prints a report with the environment, writes it and the
spans under ``perfbench/out/``, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train_copy", "train_long", "decode_stream", "verify")
SETUP_PROBES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import numpy, boundedattn, boundedattn.bench, boundedattn.verify; "
    "print(time.perf_counter() - t)"
)

END_TO_END = ("setup_s", "op_ref_p50", "peak_rss_mb")  # as listed in BENCHMARK.json
SITES = ("causal", "cross", "encoder_self")


def prepare() -> None:
    """Pin BLAS threads and put the checkout's ``src/`` first on the path.

    Must run before numpy is imported: a second BLAS thread contending with
    the other core turns a 1 ms matmul into 100 ms.
    """
    if not (SRC / "boundedattn" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {SRC}")
    if "numpy" in sys.modules:
        sys.exit("error: numpy was imported before BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # the layout differs across numpy versions
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import numpy and the library."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(cls, seed, sizes, probes):
    """Build the workload ``probes`` times; returns (set-up seconds, workload).

    Set-up is the median import time of fresh interpreters plus the median
    in-process build (models, optimizers, decode states).
    """
    from workloads import p50

    imports = [import_probe() for _ in range(probes)]
    builds, work = [], None
    for _ in range(max(probes, 1)):
        # free the previous build first: ToyLM and its _Stack reference each
        # other, so without a collection every build would stay in memory
        work = None
        gc.collect()
        work = cls(seed, sizes)
        t0 = time.perf_counter()
        work.build()
        builds.append(time.perf_counter() - t0)
    return (p50(imports) if imports else 0.0) + p50(builds), work


def layer_metrics(work, tracer, ops: int, untraced) -> dict:
    """Per-layer metrics from the traced window; times are per operation."""
    from workloads import DECODE_KINDS

    tot = tracer.totals()

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    def ms(name, key="incl_ns"):
        return get(name, key) / 1e6 / ops

    def per_call(name):
        calls = get(name, "calls")
        return get(name, "incl_ns") / 1e9 / calls if calls else 0.0

    m = {
        "toymodel.forward.self_ms": (ms("toymodel.forward", "self_ns"), "ms/op"),
        "toymodel.backward.self_ms": (ms("toymodel.backward", "self_ns"), "ms/op"),
        "toymodel.step.self_ms": (ms("toymodel.step", "self_ns"), "ms/op"),
    }
    for stem in (
        "toymodel.layer_norm", "toymodel.ffn", "toymodel.loss", "toymodel.adam",
        "strategies.phi_at", "strategies.activation_forward", "strategies.phi_matrix",
    ):
        m[f"{stem}.ms"] = (ms(stem), "ms/op")
        m[f"{stem}.calls"] = (get(stem, "calls") / ops, "calls/op")
    for site in SITES:
        m[f"attention.mha_forward.self_ms.{site}"] = (ms(f"attention.mha_forward.{site}", "self_ns"), "ms/op")
        m[f"attention.mha_backward.self_ms.{site}"] = (ms(f"attention.mha_backward.{site}", "self_ns"), "ms/op")
        total, calls = tracer.counters.get(f"attention.tape_bytes.{site}", (0, 0))
        m[f"attention.tape_bytes.{site}"] = (total / calls if calls else 0, "bytes/call")
    for kind in DECODE_KINDS:
        m[f"attention.stream_step.ms.{kind}"] = (ms(f"attention.stream_step.{kind}"), "ms/op")
        m[f"attention.init_attn_state.ms.{kind}"] = (per_call(f"attention.init_attn_state.{kind}") * 1e3, "ms/call")
        for what in ("state_bytes", "state_alloc_bytes", "state_unwritten_bytes"):
            m[f"attention.{what}.{kind}"] = (0, "bytes/seq")
        m[f"decode.step_ms_p50.{kind}"] = (0.0, "ms")
        m[f"decode.late_early.{kind}"] = (0.0, "ratio")
    for stem in ("numerics.softmax_rows", "numerics.softmax_rows_backward", "memory"):
        m[f"{stem}.ms"] = (ms(stem), "ms/op")
    m["numerics.finite_diff_grad.ms"] = (per_call("numerics.finite_diff_grad") * 1e3, "ms/call")
    import boundedattn.verify

    for suite in boundedattn.verify.SUITES:
        m[f"verify.{suite}.s"] = (per_call(f"verify.{suite}"), "s/call")
    m.update(work.layer_metrics(untraced))
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None, probes=SETUP_PROBES) -> dict:
    """One benchmark run; returns the full record (result, report, environment)."""
    from tracer import Tracer
    from workloads import WORKLOADS, Outcome, Sizes, measure, p50, run_checks, tail

    cls = WORKLOADS[workload]
    sizes = sizes or Sizes()
    setup_s, work = setup(cls, seed, sizes, 0 if trace else probes)

    out = Outcome()
    # a traced run's untraced half only sets the overhead baseline; gradcheck
    # (verify's once-per-window work) runs in its traced half
    measure(work, seconds / 2 if trace else seconds, out, once=not trace)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "setup_s": (setup_s, "s"),
        "op_ref_p50": (p50(out.op_ref) if out.op_ref else 0.0, "ref"),
        "op_ms_p50": (1e3 * p50(out.op_s) if out.op_s else 0.0, "ms"),
        "ref_loop_ms": (1e3 * p50(out.reference.samples), "ms"),
        "op_ms_tail": (tail([1e3 * x for x in out.op_s]), "ms"),
        "ops": (len(out.op_s), "count"),
        "ops_per_s": (len(out.op_s) / out.wall_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report.update(work.report(out))

    tracer = None
    if trace:
        traced = Outcome()
        tracer = Tracer()
        with tracer:
            measure(work, seconds / 2, traced)
        out.attempted += traced.attempted
        out.failures += traced.failures
        base = p50(out.op_ref) if out.op_ref else 0.0
        overhead = p50(traced.op_ref) / base - 1.0 if base and traced.op_ref else 0.0
        layers = layer_metrics(work, tracer, max(len(traced.op_s), 1), out)
        layers["trace.overhead_frac"] = (overhead, "frac")

    run_checks(work, out)
    report["failed_frac"] = (len(out.failures) / max(out.attempted, 1), "frac")
    metrics = layers if trace else {k: report[k] for k in END_TO_END}
    result = {
        "correct": not out.failures,
        "attempted": max(out.attempted, 1),
        "failed": len(out.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "checks": out.checks,
        "failures": out.failures,
        "result": result,
        "tracer": tracer,
    }


def _fmt(name, value, unit) -> str:
    if isinstance(value, dict):  # a tail: value at the highest percentile with ten samples beyond
        return f"{name} = {value['value']:.6g} {unit} (p{value['percentile']:.1f} of {value['samples']} samples)"
    if value is None:
        return f"{name} = n/a (fewer than 11 samples)"
    return f"{name} = {value:.6g} {unit}"


def emit(record: dict) -> None:
    """Print the report, write it and the spans under ``out/``, then the result line."""
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    tracer = record.pop("tracer")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}")
    print("# environment " + json.dumps(record["environment"]))
    for f in record["failures"]:
        print(f"# FAILED {f['what']}: {f['type']}: {f['message']} {f['where']}")
    for c in record["checks"]:
        print(f"# check {'ok' if c['ok'] else 'FAILED'}: {c['what']}: {c['detail']}")
    for name, m in record["report"].items():
        print(_fmt(name, m["value"], m["unit"]))
    if record["trace"]:
        for name, m in record["result"]["metrics"].items():
            print(_fmt(name, m["value"], m["unit"]))
    print(json.dumps(record["result"]))


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or not json.loads(lines[-1]).get("correct"):
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    prepare()
    emit(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
