#!/usr/bin/env python3
"""Run ``perfbench/run.py`` for a commit and its parent in alternating pairs.

    python3 tools/bench_pairs.py --workload hybrid-protocol --pairs 10 \\
        --seed 4242 --seconds 30 --out BENCH_<short-sha>.json

The change is ``HEAD`` of this repository, whose ``src/`` and ``perfbench/``
must have no uncommitted edits, and the parent is ``HEAD^``.  Both are
checked out into temporary shared clones (removed at the end), so the
measured code is exactly the committed code.
Pair i runs the parent first when i is odd and the change first when i is
even, each untraced (``--trace 0``).

The result is merged into ``--out`` (created if missing) in the schema of
``BENCH_*.json`` (an existing file must hold the same two commits):
``workloads.<name>.{change,parent}`` holds the first pair's two runs
(metadata, notes, digest and the JSON result line), and, when
``--pairs`` is above one, ``<name>_claim_pairs`` holds the ``--seed`` and
every pair's gated end-to-end metrics with their quartiles (inclusive
method; the middle one is the median) and the number of pairs the change
won, by the ``better``
direction in ``BENCHMARK.json``, and how many pairs had identical digests.
It also holds each run's reference-kernel time scale (``time_scale``, with
quartiles) and its unscaled ``runs_per_s`` (``unscaled_runs_per_s``, with
quartiles and the change's wins), both parsed from the run's
``time scale ... unscaled: ... runs_per_s ... 1/s`` note: the scaled rates
move with the time scale, the unscaled rate does not.  And it holds each
run's ``cpu_per_wall`` (with quartiles): the CPU seconds of the perfbench
process and its children (``resource.getrusage(RUSAGE_CHILDREN)`` deltas)
over its wall seconds, so a gain that comes from a second BLAS core shows.
Each run record also keeps its ``cpu_s`` and ``wall_s``.

After the pairs, one traced pass per side (``--trace 1``, the parent
first) gives ``<name>_layers``: every per-layer metric of ``BENCHMARK.json``
on both sides with the change/parent ratio, and each side's ``failed``
count and zero-span guard lines.

When the first pair's ``digest-sha256`` lines differ, ``<name>_digest_diff``
lists the ``# digest`` rows that differ: each row's label, its parent and
change values, and per value the distance in units in the last place for
floats (0 for an equal value, null for an unequal one of another type).

A later run at another ``--seed`` than the stored claim pairs' is a held-out
run: it makes no traced pass and writes ``<name>_heldout_pairs`` (the same
fields as the claim pairs) into the same ``--out`` file, leaving the
workload's claim, layers and digest diff as they were.  A run at the claim's
seed replaces them.  The merge itself is :func:`merge`, which starts no
process.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev: str, into: Path) -> Path:
    """Shared clone of this repository at ``rev`` (detached) under ``into``."""
    path = into / rev[:12]
    git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT), str(path))
    git("checkout", "--quiet", "--detach", rev, cwd=path)
    return path


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One perfbench run in ``tree``, parsed into the record schema.  A traced
    run that trips a zero-span guard exits 1 but still prints its result; its
    guard lines are kept under ``guards``.  ``cpu_s`` and ``wall_s`` are the
    CPU and wall seconds of the subprocess and the children it waited for."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cpu0, wall0 = cpu_children(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall_s, cpu_s = time.perf_counter() - wall0, cpu_children() - cpu0
    lines = proc.stdout.splitlines()
    if proc.returncode not in ((0, 1) if trace else (0,)) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    record = {"meta": None, "notes": [], "digest_sha256": None, "digest_rows": [],
              "result": json.loads(lines[-1]), "cpu_s": cpu_s, "wall_s": wall_s}
    for line in lines[:-1]:
        if line.startswith("# meta "):
            meta = json.loads(line[len("# meta "):])
            meta.pop("inputs", None)  # the digest identifies them
            record["meta"] = meta
        elif line.startswith("# digest-sha256 "):
            record["digest_sha256"] = line.split()[-1]
        elif line.startswith("# digest "):
            record["digest_rows"].append(json.loads(line[len("# digest "):]))
        elif line.startswith("# ") and not line.startswith("# metric "):
            record["notes"].append(line[2:])
    if trace:
        record["guards"] = [line[2:] for line in proc.stderr.splitlines()
                            if line.startswith("# GUARD")]
    return record


def cpu_children() -> float:
    """User plus system CPU seconds of every waited-for child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


SCALE_NOTE = re.compile(r"^time scale (\S+) \(reference kernel\); unscaled: "
                        r".*\bruns_per_s (\S+) 1/s$")


def scale_note(record: dict) -> tuple[float, float]:
    """The run's reference-kernel time scale and its unscaled runs_per_s."""
    for note in record["notes"]:
        match = SCALE_NOTE.match(note)
        if match:
            return float(match[1]), float(match[2])
    raise ValueError("no 'time scale ... unscaled: ... runs_per_s' note in the run")


def series(parent: list[float], change: list[float], direction: str | None) -> dict:
    """Both series and their quartiles, and the change's wins when ``direction``
    says which way is better."""
    out = {"parent": parent, "change": change,
           "parent_quartiles": quartiles(parent), "change_quartiles": quartiles(change)}
    if direction is not None:
        out = {"better": direction, **out,
               "change_wins": sum((c > p) if direction == "higher" else (c < p)
                                  for p, c in zip(parent, change))}
    return out


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per gated metric: both series, their quartiles, and the change's wins;
    then the time scale, the unscaled runs_per_s and the CPU/wall ratio of
    every run."""
    out = {}
    for name, direction in better.items():
        parent = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
        change = [c["result"]["metrics"][name]["value"] for _, c in pairs]
        out[name] = series(parent, change, direction)
    notes = [(scale_note(p), scale_note(c)) for p, c in pairs]
    out["time_scale"] = series([p[0] for p, _ in notes], [c[0] for _, c in notes], None)
    out["unscaled_runs_per_s"] = series([p[1] for p, _ in notes], [c[1] for _, c in notes],
                                        "higher")
    out["cpu_per_wall"] = series([p["cpu_s"] / p["wall_s"] for p, _ in pairs],
                                 [c["cpu_s"] / c["wall_s"] for _, c in pairs], None)
    return out


def layers(parent: dict, change: dict, names: list[str]) -> dict:
    """Per-layer metrics of one traced pass per side, with the change/parent ratio."""
    out = {}
    for name in names:
        p = parent["result"]["metrics"][name]
        c = change["result"]["metrics"][name]["value"]
        out[name] = {"unit": p["unit"], "parent": p["value"], "change": c,
                     "ratio": c / p["value"] if p["value"] else None}
    return out


def _ordered(x: float) -> int:
    """``x``'s place among the doubles: neighbours differ by one."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(2**63) - bits


def ulps(parent, change) -> int | None:
    """Doubles between two digest values: 0 when equal, None for unequal non-floats."""
    if parent == change:
        return 0
    if isinstance(parent, float) and isinstance(change, float):
        return abs(_ordered(parent) - _ordered(change))
    return None


def digest_diff(parent: dict, change: dict) -> dict:
    """The digest rows (label first, then values) that differ between two runs."""
    rows = []
    for p, c in zip(parent["digest_rows"], change["digest_rows"]):
        if p != c:
            rows.append({"label": p[0], "parent": p[1:], "change": c[1:],
                         "ulps": [ulps(a, b) for a, b in zip(p[1:], c[1:])]})
    return {"parent_sha256": parent["digest_sha256"],
            "change_sha256": change["digest_sha256"],
            "rows_compared": min(len(parent["digest_rows"]), len(change["digest_rows"])),
            "rows": rows}


def claim_seed(doc: dict, workload: str) -> int | None:
    """The ``--seed`` of the claim pairs stored for ``workload``, if any."""
    return doc.get(f"{workload.replace('-', '_')}_claim_pairs", {}).get("seed")


def merge(doc: dict, workload: str, seed: int, seconds: float,
          pairs: list[tuple[dict, dict]], traced: dict | None,
          better: dict[str, str], per_layer: list[str]) -> dict:
    """Merge one invocation's pairs (and traced pass) into ``doc``, in place.

    A run at another seed than the workload's stored claim pairs is a
    held-out run: it writes ``<name>_heldout_pairs`` only, and ``traced``
    is not read.  Any other run writes ``workloads.<name>``, the digest diff,
    ``<name>_claim_pairs`` (above one pair) and ``<name>_layers``.
    """
    key = workload.replace("-", "_")
    command = (f"python3 perfbench/run.py --workload {workload} "
               f"--seed {seed} --seconds {seconds:g} --trace")
    record = {
        "command": f"{command} 0",
        "seed": seed,
        "order": "pair i runs the parent first when i is odd, "
                 "the change first when i is even",
        **summarize(pairs, better),
        "digest_identical_pairs": sum(p["digest_sha256"] == c["digest_sha256"]
                                      for p, c in pairs),
    }
    if claim_seed(doc, workload) not in (None, seed):
        doc[f"{key}_heldout_pairs"] = record
        return doc
    doc["command"] = ("python3 perfbench/run.py --workload <name> "
                      f"--seed {seed} --seconds {seconds:g} --trace 0")
    first = {side: {k: v for k, v in run.items() if k != "digest_rows"}
             for side, run in zip(("parent", "change"), pairs[0])}
    doc.setdefault("workloads", {})[workload] = first
    doc.pop(f"{key}_digest_diff", None)
    if first["parent"]["digest_sha256"] != first["change"]["digest_sha256"]:
        doc[f"{key}_digest_diff"] = digest_diff(*pairs[0])
    if len(pairs) > 1:
        doc[f"{key}_claim_pairs"] = record
    doc[f"{key}_layers"] = {
        "command": f"{command} 1",
        "failed": {side: run["result"]["failed"] for side, run in traced.items()},
        "guards": {side: run["guards"] for side, run in traced.items()},
        **layers(traced["parent"], traced["change"], per_layer),
    }
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src", "perfbench"],
                      cwd=ROOT).returncode:
        ap.error("src/ or perfbench/ differs from HEAD; commit the change first")
    change_sha = git("rev-parse", "HEAD")
    parent_sha = git("rev-parse", "HEAD^")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if doc and (doc["change"], doc["parent"]) != (change_sha, parent_sha):
        ap.error(f"{args.out} holds other commits")
    held_out = claim_seed(doc, args.workload) not in (None, args.seed)

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": checkout(parent_sha, tmp), "change": checkout(change_sha, tmp)}
        pairs = []
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            runs = {}
            for side in order:
                runs[side] = run_once(trees[side], args.workload, args.seed, args.seconds)
                rps = runs[side]["result"]["metrics"]["runs_per_s"]["value"]
                print(f"pair {i} {side}: runs_per_s {rps:.4g}", file=sys.stderr)
            pairs.append((runs["parent"], runs["change"]))
        traced = None if held_out else {
            side: run_once(trees[side], args.workload, args.seed, args.seconds, 1)
            for side in ("parent", "change")}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    doc.update({
        "what": "perfbench results, the change beside its parent, "
                "same session and host",
        "change": change_sha,
        "parent": parent_sha,
    })
    merge(doc, args.workload, args.seed, args.seconds, pairs, traced, better, per_layer)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
