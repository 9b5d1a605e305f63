"""Fremont benchmark: one command per workload, checked outputs, named metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout.  Every Journal Server is a real
``python -m repro serve --durable DIR --fsync interval`` subprocess on
loopback; the load comes from this process (at most two threads and
two connections per server), and all of them share one CPU.  Host
speed is sampled between the parts of every measured phase and every
time and rate is reported at the reference host's full speed (see
NOTES.md).  ``--trace 0`` prints every end-to-end
metric named in BENCHMARK.json; ``--trace 1`` records benchmark-side
spans and prints every per-layer metric instead.  The last line of
standard output is the JSON result; the lines before it record the
host, the seed, why the workload exists and each output check.
``--record-campaign`` re-records the expected campaign discovery
results (expected_campaign.json) after a deliberate behaviour change,
and prints the explorer stream's mix the ingest stream is drawn from.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import shutil
import sys

import harness


def _load_spec() -> dict:
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise harness.BenchError(f"cannot read {path}: {error}") from None


#: workload name -> module in this directory implementing ``run``
WORKLOADS = ("campaign", "ingest", "inquiry", "fleet")


def _cleanup() -> None:
    harness.stop_echoer()
    for path in glob.glob(os.path.join(harness.WORK_DIR, f"*-{os.getpid()}")):
        shutil.rmtree(path, ignore_errors=True)


def _write(name: str, payload) -> str:
    os.makedirs(harness.WORK_DIR, exist_ok=True)
    path = os.path.join(harness.WORK_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-campaign", action="store_true")
    args = parser.parse_args(argv)

    try:
        harness.require_source()
        spec = _load_spec()
    except harness.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.record_campaign:
        import campaign
        from generators import CAMPAIGN_VARIANTS

        try:
            recorded, stream = campaign.record_expected(range(CAMPAIGN_VARIANTS))
        finally:
            _cleanup()
        with open(campaign.EXPECTED_PATH, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {campaign.EXPECTED_PATH}")
        total = sum(stream.values())
        print(f"explorer stream ({total} observations): " + ", ".join(
            f"{kind} {count / total:.3f}" for kind, count in stream.items()))
        return 0

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    module = importlib.import_module(args.workload)
    harness.pin_to_one_cpu()
    tracer = harness.Tracer(bool(args.trace))
    outcome = harness.Outcome()
    try:
        module.run(args.seed, args.seconds, tracer, outcome)
    finally:
        _cleanup()
    outcome.e2e["server_rss_mb"] = max(outcome.rss) if outcome.rss else 0.0
    if args.trace:
        harness.copy_traced(outcome)

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: float(outcome.layers.get(m["name"], 0.0)) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in outcome.e2e]
        if missing:
            raise harness.BenchError(f"workload did not measure {missing}")
        values = {m["name"]: float(outcome.e2e[m["name"]]) for m in wanted}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": why,
        "host": harness.host_record(),
        "checks": outcome.checks,
        "tails": outcome.tails,
        "info": outcome.info,
        "failed_share": outcome.failed / max(1, outcome.attempted),
    }
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {why}")
    print("# host " + json.dumps(context["host"], sort_keys=True))
    for name, state in sorted(outcome.checks.items()):
        print(f"# check {name}: {state}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    for name, (value, rank) in sorted(outcome.tails.items()):
        print(f"# {name} = {value:.6g} ms ({rank}; unbounded, see NOTES.md)")
    print(f"# failed_share = {context['failed_share']:.6g} "
          f"({outcome.failed}/{outcome.attempted})")
    if outcome.info:
        print("# info " + json.dumps(outcome.info, sort_keys=True, default=str))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    context["metrics"] = metrics
    print("# result file " + _write(stem + ".json", context))
    if args.trace:
        print("# spans file " + _write(
            stem + "-spans.json", [span.to_dict() for span in tracer.spans]
        ))
    print(json.dumps({
        "correct": outcome.correct and outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
