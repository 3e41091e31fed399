"""Closed-loop measuring process: one caller, one verdict at a time.

Started by run.py as a fresh interpreter.  It draws each round's
inputs, times every verdict of the round back to back, then checks the
round with :mod:`checks` while the clock is stopped, and repeats whole
rounds until the timed phase reaches --seconds.  It writes a JSON
summary to --out.

With --trace 1 the library functions are wrapped (see tracing.py) and
the same loop runs, which gives the traced verdicts per second.  Each
layer is then measured on its home workload, in a pass of fixed rounds
on fixed inputs (LAYER_SEED, LAYER_ROUNDS).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

import tracing
import workloads

# Layer passes of a traced run: fixed inputs (seed 0) and a fixed number of
# rounds, about 5 s each, so that every count repeats exactly across runs.
LAYER_SEED = 0
LAYER_ROUNDS = {"decide": 1, "fixpoints": 4, "cli": 2}


def run_pass(wl, seconds=None, rounds=None) -> dict:
    """Whole rounds until ``seconds`` of timed phase or ``rounds`` rounds."""
    latencies, failures, unexpected, round_s = [], [], [], []
    r = 0
    while True:
        items = wl.round(r)
        outs = []
        start = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            try:
                out = wl.verdict(item)
            except Exception as exc:  # a verdict that raises counts as failed
                out = exc
            latencies.append(time.perf_counter() - t0)
            outs.append(out)
        round_s.append(time.perf_counter() - start)
        for item, out in zip(items, outs):
            if isinstance(out, Exception):
                reason = f"{item['label']}: raised {type(out).__name__}: {out}"
            else:
                try:
                    reason = wl.check(item, out)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
                    reason = f"{item['label']}: unreadable verdict: {exc!r}"
            if reason:
                failures.append(reason)
                if not item.get("known_fault"):
                    unexpected.append(reason)
        r += 1
        if (rounds is not None and r >= rounds) or (seconds is not None
                                                    and sum(round_s) >= seconds):
            break
    return {"round_s": round_s, "latencies_s": latencies, "failures": failures,
            "unexpected": unexpected}


def cli_layer_metrics(records) -> dict:
    spans = [s for rec in records for s in rec["spans"]]
    layers = tracing.layer_metrics(spans, len(records))
    return {
        "cli.import_ms": statistics.fmean(r["import_ms"] for r in records),
        "cli.modules_loaded": statistics.fmean(r["modules_loaded"] for r in records),
        "cli.handler_ms": statistics.fmean(r["handler_ms"] for r in records),
        "serialize.load_ms": layers["serialize.load_ms"],
        "serialize.dump_ms": layers["serialize.dump_ms"],
    }


def home_metrics(name, wl, spans, result) -> tuple[dict, dict]:
    """Metrics of the layers whose home is workload ``name``, and the pass's spans."""
    verdicts = len(result["latencies_s"])
    if name == "cli":
        spans = wl.records[-verdicts:]
        metrics = cli_layer_metrics(spans)
    else:
        metrics = tracing.layer_metrics(spans, verdicts)
    metrics = {k: v for k, v in metrics.items() if tracing.HOME[k.split(".")[0]] == name}
    return metrics, {"workload": name, "verdicts": verdicts, "spans": spans}


def warm(wl) -> None:
    for item in wl.warmup():
        wl.verdict(item)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("decide", "fixpoints", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tmp, bool(args.trace))
    warm(wl)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = run_pass(wl, seconds=args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    summary = dict(result, peak_rss_kb=resource.getrusage(who).ru_maxrss)
    if tracer is not None:
        layers, dumps = {}, []
        for name, rounds in LAYER_ROUNDS.items():
            lwl = workloads.WORKLOADS[name](LAYER_SEED, args.tmp, True)
            warm(lwl)
            tracer.spans = []
            res = run_pass(lwl, rounds=rounds)
            summary["unexpected"] += res["unexpected"]
            metrics, dump = home_metrics(name, lwl, tracer.spans, res)
            layers.update(metrics)
            dumps.append(dump)
        summary["layers"] = layers
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(dumps, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main()
