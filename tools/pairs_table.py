"""Summarise interleaved parent/change benchmark pairs as a markdown table.

    python tools/pairs_table.py WORKLOAD SEED [--dir .perfbench_out/pairs]

Reads ``<dir>/<WORKLOAD>-s<SEED>.jsonl`` (the lines ``make bench-pairs``
writes: ``{"pair", "side", "result"}``) and, for each end-to-end metric
that ``BENCHMARK.json`` declares, prints the parent's and the change's
median [q1, q3], the change in %, how many pairs the change won (ties
count for neither), whether a gain could be claimed — the change wins at
least 9/10 of the pairs and the medians differ by more than the parent's
interquartile range — and a flag on a metric whose change median is worse
than the parent's by more than its ``bound``. A run that was not correct,
or had failed operations, counts against its side and is listed.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[int, dict[str, dict]]:
    """pair -> side -> result (None for a run that printed nothing).
    ``make bench-pairs`` appends, so a file can hold several sessions:
    a pair is two consecutive lines with one pair number."""
    pairs: list[dict[str, dict]] = []
    last = None
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if r["pair"] != last or r["side"] in pairs[-1]:
                pairs.append({})
            last = r["pair"]
            pairs[-1][r["side"]] = r["result"]
    return dict(enumerate(pairs, start=1))


def _ok(res: dict | None) -> bool:
    return bool(res) and res.get("correct") is True and not res.get("failed")


def _value(res: dict | None, name: str) -> float | None:
    if not _ok(res):
        return None
    v = res["metrics"].get(name, {}).get("value")
    return None if v is None else float(v)


def _quartiles(v: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    return float(med), float(q1), float(q3)


def rows(pairs: dict[int, dict[str, dict]], metrics: list[dict]) -> list[dict]:
    out = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par = [_value(p.get("parent"), name) for p in pairs.values()]
        chg = [_value(p.get("change"), name) for p in pairs.values()]
        both = [(a, b) for a, b in zip(par, chg) if a is not None and b is not None]
        pv, cv = [a for a in par if a is not None], [b for b in chg if b is not None]
        if not pv or not cv:
            out.append({"name": name, "missing": True})
            continue
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        (pm, p1, p3), (cm, c1, c3) = _quartiles(pv), _quartiles(cv)
        gain = (pm - cm) if lower else (cm - pm)
        worse = -gain / abs(pm) if pm else 0.0
        out.append({
            "name": name, "unit": m.get("unit", ""), "parent": (pm, p1, p3),
            "change": (cm, c1, c3), "pct": 100.0 * (cm - pm) / pm if pm else float("nan"),
            "wins": wins, "n": len(pairs),
            "claim": wins * 10 >= 9 * len(pairs) and gain > p3 - p1,
            "over_bound": worse > m.get("bound", float("inf")),
        })
    return out


def render(table: list[dict], pairs: dict[int, dict[str, dict]]) -> str:
    def q(t: tuple[float, float, float]) -> str:
        return f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"

    lines = [
        "| metric | parent median [q1, q3] | change median [q1, q3] | Δ% | change wins | gain holds (≥ 9/10, Δ > parent IQR) | worse than bound |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in table:
        if r.get("missing"):
            lines.append(f"| {r['name']} | – | – | – | – | – | no correct run on a side |")
            continue
        lines.append(
            f"| {r['name']} ({r['unit']}) | {q(r['parent'])} | {q(r['change'])} | "
            f"{r['pct']:+.1f}% | {r['wins']}/{r['n']} | {'yes' if r['claim'] else 'no'} | "
            f"{'**WORSE**' if r['over_bound'] else 'no'} |"
        )
    bad = [
        f"pair {i} {side}" for i, p in sorted(pairs.items())
        for side in ("parent", "change") if not _ok(p.get(side))
    ]
    if bad:
        lines.append("")
        lines.append("Runs not correct, with failed operations, or missing: " + ", ".join(bad))
    return "\n".join(lines)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--dir", default=os.path.join(ROOT, ".perfbench_out", "pairs"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    pairs = load(os.path.join(args.dir, f"{args.workload}-s{args.seed}.jsonl"))
    print(f"{args.workload}, seed {args.seed}, {len(pairs)} pairs\n")
    print(render(rows(pairs, metrics), pairs))


if __name__ == "__main__":
    main()
