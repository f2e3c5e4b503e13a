#!/usr/bin/env python3
"""Merge benchmark/campaign outputs into a tracked BENCH file.

Usage: merge_bench_json.py <bench_file> <label> <commit> <input> [<input>...]
           [--summary-only]

Three input flavors are auto-detected:

* google-benchmark output (bench/microbench): the tracked file holds a
  list of labeled runs (one per engine/stage), each carrying the
  google-benchmark context and the aggregate benchmark entries, so
  before/after comparisons live side by side in a single reviewable file.
* exp:: campaign output (schema "gfc-campaign-v1", from --json on
  fig16_17_overall / table1_deadlock_cases / fault_sweep / gfc_sweep): the
  tracked file gets the campaign name plus per-trial params/metrics, and —
  when the campaign was written with --timing — the jobs/wall_ms metadata,
  so serial-vs-parallel wall-clock comparisons are recorded next to the
  microbenchmarks. Campaigns whose trials carry a params.mechanism
  (fault_sweep's mechanism x scenario matrix, table1) additionally get a
  deterministic per-mechanism rollup under "by_mechanism". --summary-only
  drops the per-trial list and keeps just the counts + timing + rollup,
  for wall-clock records where the trial data is already tracked
  elsewhere.
* binary trial journals (schema "gfc-journal-v1", the --journal/--resume
  crash-safety files): parsed frame by frame (u32le length, u32le CRC-32,
  JSON payload; every CRC is verified) into the campaign form above.

Multiple campaign inputs — sharded --json stores and/or shard journals —
are merged into ONE run: each shard contributes its executed trials, later
inputs supersede earlier ones per trial id, and inputs whose campaign
fingerprint (campaign name, seed, trial count, per-trial names) disagrees
are refused with exit status 2. Re-running with the same label replaces
that run in place.
"""
import json
import struct
import sys
import zlib


def mechanism_summary(trials: list) -> dict | None:
    """Group trials by params.mechanism: per mechanism (sorted), the
    trial/failure counts plus one aggregate per metric (sorted) — a
    true-count for booleans (e.g. how many scenarios deadlocked), a mean
    for numbers — so each mechanism's behavior across the campaign is
    reviewable without scanning the trial list."""
    groups: dict[str, list] = {}
    for t in trials:
        mech = (t.get("params") or {}).get("mechanism")
        if mech is not None:
            groups.setdefault(mech, []).append(t)
    if not groups:
        return None
    out: dict[str, dict] = {}
    for mech in sorted(groups):
        ts = groups[mech]
        summary: dict = {
            "n_trials": len(ts),
            "n_failed": sum(1 for t in ts if t.get("failed")),
        }
        n_timed_out = sum(1 for t in ts if t.get("timed_out"))
        if n_timed_out:
            summary["n_timed_out"] = n_timed_out
        metrics: dict[str, list] = {}
        for t in ts:
            for k, v in (t.get("metrics") or {}).items():
                metrics.setdefault(k, []).append(v)
        for k in sorted(metrics):
            vals = metrics[k]
            if all(isinstance(v, bool) for v in vals):
                summary[k + "_count"] = sum(1 for v in vals if v)
            elif all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in vals):
                summary[k + "_mean"] = round(sum(vals) / len(vals), 6)
        out[mech] = summary
    return out


def campaign_run(label: str, commit: str, raw: dict,
                 summary_only: bool) -> dict:
    trials = raw.get("trials", [])
    run = {
        "label": label,
        "commit": commit,
        "campaign": raw.get("campaign", ""),
        "schema": raw.get("schema"),
        "n_trials": len(trials),
        "n_failed": sum(1 for t in trials if t.get("failed")),
    }
    n_timed_out = sum(1 for t in trials if t.get("timed_out"))
    n_skipped = sum(1 for t in trials if t.get("skipped"))
    if n_timed_out:
        run["n_timed_out"] = n_timed_out
    if n_skipped:
        run["n_skipped"] = n_skipped
    for key in ("jobs", "wall_ms"):  # present only with --timing
        if key in raw:
            run[key] = raw[key]
    by_mechanism = mechanism_summary(trials)
    if by_mechanism is not None:
        run["by_mechanism"] = by_mechanism
    if not summary_only:
        run["trials"] = trials
    return run


def trace_overhead_summary(benchmarks: list) -> dict | None:
    """BM_TraceOff vs BM_TraceOn (vs the untraced BM_RingSimulationGfc
    baseline): the tracing-disabled path must stay within noise of the
    baseline, and the slowdown ratios make that auditable per run."""
    rates = {
        b["name"]: b["items_per_second"]
        for b in benchmarks
        if b.get("name") in ("BM_RingSimulationGfc", "BM_TraceOff",
                             "BM_TraceOn") and b.get("items_per_second")
    }
    off, on = rates.get("BM_TraceOff"), rates.get("BM_TraceOn")
    if not off or not on:
        return None
    summary = {
        "off_items_per_second": off,
        "on_items_per_second": on,
        "on_vs_off_slowdown": round(off / on, 4),
    }
    base = rates.get("BM_RingSimulationGfc")
    if base:
        summary["off_vs_untraced_baseline"] = round(base / off, 4)
    return summary


def gbench_run(label: str, commit: str, raw: dict) -> dict:
    run = {
        "label": label,
        "commit": commit,
        "date": raw.get("context", {}).get("date", ""),
        "context": {
            k: raw.get("context", {}).get(k)
            for k in ("host_name", "num_cpus", "mhz_per_cpu",
                      "library_build_type")
        },
        # Keep only the per-benchmark aggregates; drop per-iteration noise.
        "benchmarks": [
            {
                k: b[k]
                for k in ("name", "iterations", "real_time", "cpu_time",
                          "time_unit", "items_per_second", "allocs_per_iter",
                          "label")
                if k in b
            }
            for b in raw.get("benchmarks", [])
        ],
    }
    overhead = trace_overhead_summary(run["benchmarks"])
    if overhead:
        run["trace_overhead"] = overhead
    return run


def parse_journal(path: str) -> dict:
    """gfc-journal-v1 -> campaign form: a header frame then one flat frame
    per completed trial ("trial": id alongside the TrialRecord fields).
    Every frame's CRC-32 is verified; a torn final frame (mid-write kill)
    is tolerated, anything else inconsistent is an error."""
    data = open(path, "rb").read()
    frames = []
    pos = 0
    while True:
        if len(data) - pos < 8:
            break  # torn tail (or clean EOF at pos == len)
        length, crc = struct.unpack_from("<II", data, pos)
        if len(data) - pos - 8 < length:
            break  # torn final frame
        payload = data[pos + 8:pos + 8 + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise SystemExit(f"{path}: CRC mismatch in size-complete frame "
                             f"at byte {pos}; refusing corrupt journal")
        frames.append(json.loads(payload))
        pos += 8 + length
    if not frames or frames[0].get("schema") != "gfc-journal-v1":
        raise SystemExit(f"{path}: not a gfc-journal-v1 journal")
    header = frames[0]
    n = header["n_trials"]
    trials = [{"name": None, "skipped": True} for _ in range(n)]
    for fr in frames[1:]:
        idx = fr["trial"]
        if not 0 <= idx < n:
            raise SystemExit(f"{path}: trial id {idx} out of range")
        # Later frames supersede (a trial re-appended on retry/rerun).
        trials[idx] = {k: v for k, v in fr.items() if k != "trial"}
    return {
        "schema": "gfc-campaign-v1",
        "campaign": header["campaign"],
        "seed": header["seed"],
        "param_hash": header["param_hash"],
        "trials": trials,
    }


def load_input(path: str) -> dict:
    """A JSON document (campaign store / google-benchmark) or a binary
    gfc-journal-v1 journal, auto-detected."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return parse_journal(path)


def fingerprint(doc: dict) -> tuple:
    """What must agree for two campaign inputs to be shards of the same
    run: name, seed, trial count, and each slot's trial name (journals
    leave never-executed slots as None wildcards)."""
    return (doc.get("campaign"), doc.get("seed"),
            len(doc.get("trials", [])))


def merge_campaigns(docs: list[dict], paths: list[str]) -> dict:
    base = docs[0]
    for doc, path in zip(docs[1:], paths[1:]):
        if fingerprint(doc) != fingerprint(base):
            raise SystemExit(
                f"{path}: campaign fingerprint mismatch: "
                f"{fingerprint(doc)} != {fingerprint(base)} ({paths[0]}); "
                "refusing to merge shards of different campaigns")
        hashes = {d.get("param_hash") for d in (base, doc)
                  if d.get("param_hash") is not None}
        if len(hashes) > 1:
            raise SystemExit(f"{path}: journal param fingerprint mismatch; "
                             "refusing to merge shards of different campaigns")
    n = len(base.get("trials", []))
    merged = [None] * n
    for doc, path in zip(docs, paths):
        for idx, t in enumerate(doc["trials"]):
            if t.get("skipped"):
                continue
            prev = merged[idx]
            if prev is not None and prev.get("name") != t.get("name"):
                raise SystemExit(
                    f"{path}: trial {idx} is '{t.get('name')}' but an "
                    f"earlier shard has '{prev.get('name')}'; refusing "
                    "to merge shards of different campaigns")
            merged[idx] = t  # later inputs supersede
    for idx in range(n):
        if merged[idx] is None:  # executed by no shard
            slot = base["trials"][idx]
            merged[idx] = {"name": slot.get("name"), "skipped": True}
    out = {k: v for k, v in base.items() if k != "param_hash"}
    out["trials"] = merged
    return out


def main() -> None:
    bench_file, label, commit = sys.argv[1:4]
    rest = sys.argv[4:]
    summary_only = "--summary-only" in rest
    input_paths = [a for a in rest if a != "--summary-only"]
    if not input_paths:
        raise SystemExit("usage: merge_bench_json.py <bench_file> <label> "
                         "<commit> <input> [<input>...] [--summary-only]")

    docs = [load_input(p) for p in input_paths]

    if docs[0].get("schema") == "gfc-campaign-v1":
        raw = merge_campaigns(docs, input_paths)
        run = campaign_run(label, commit, raw, summary_only)
        default_doc = {"schema": "gfc-campaigns-v1", "runs": []}
    else:
        if len(docs) > 1:
            raise SystemExit("multiple inputs are only supported for "
                             "gfc-campaign-v1 stores/journals")
        run = gbench_run(label, commit, docs[0])
        default_doc = {"schema": "gfc-bench-v1", "benchmark": "microbench",
                       "runs": []}

    try:
        with open(bench_file) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = default_doc

    doc["runs"] = [r for r in doc["runs"] if r.get("label") != label] + [run]

    with open(bench_file, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
