"""``python -m benchmarks.perf compare A.json B.json``.

Per workload, one row per end-to-end metric: both medians, both
inter-quartile spreads, the bound, and a verdict --

- ``unresolved`` when the spread exceeds the bound and the runs overlap
  (noise this wide can hide a regression, so it is not "unchanged");
- ``regressed`` when B's median is worse than A's by more than the bound;
- ``improved`` when B's median is better by more than both the bound and
  the spread;
- ``unchanged`` otherwise.

Then the three per-layer time metrics that moved most (by share of
attributed host time, which cancels a uniformly faster or slower
machine), and every exact count that differs, exactly.  Refuses to
compare across different seeds, workload sizes, or a
``host.calib_mops`` shift above 10 % unless ``--force``.
"""

import json

from benchmarks.perf import spec

CALIB_SHIFT = 0.10
TOP_MOVERS = 3


class Refusal(Exception):
    """The two files are not comparable."""


def load(path):
    with open(path) as handle:
        return json.load(handle)


def _spread(stats):
    median = stats["median"]
    return (stats["q3"] - stats["q1"]) / abs(median) if median else 0.0


def verdict(metric, a, b):
    """``(verdict, worse_by, spread)`` for one end-to-end metric."""
    sign = 1.0 if metric.better == spec.LOWER else -1.0
    delta = sign * (b["median"] - a["median"])
    if metric.absolute:
        worse_by, spread = delta, max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    else:
        worse_by = delta / abs(a["median"]) if a["median"] else (
            0.0 if not delta else float("inf"))
        spread = max(_spread(a), _spread(b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > metric.bound and overlap:
        return "unresolved", worse_by, spread
    if worse_by > metric.bound:
        return "regressed", worse_by, spread
    if -worse_by > max(metric.bound, spread):
        return "improved", worse_by, spread
    return "unchanged", worse_by, spread


def check_comparable(a, b, force=False):
    """Raise :class:`Refusal` unless A and B measured the same thing."""
    reasons = []
    if a["seed"] != b["seed"]:
        reasons.append(f"seeds differ ({a['seed']} vs {b['seed']})")
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            reasons.append(f"{name}: present in only one file")
            continue
        if wa["untraced"]["size"] != wb["untraced"]["size"]:
            reasons.append(f"{name}: workload sizes differ")
    ca, cb = a["calib_mops"], b["calib_mops"]
    if abs(cb - ca) / ca > CALIB_SHIFT:
        reasons.append(
            f"host.calib_mops moved {100 * (cb - ca) / ca:+.1f} % "
            f"({ca:.2f} -> {cb:.2f}): different machine")
    if reasons and not force:
        raise Refusal("; ".join(reasons))
    return reasons


def end_to_end_rows(name, wa, wb):
    rows = []
    for metric_name in spec.CARRIES[name]:
        a = wa["untraced"]["end_to_end"].get(metric_name)
        b = wb["untraced"]["end_to_end"].get(metric_name)
        if a is None or b is None:
            continue
        metric = spec.END_TO_END_BY_NAME[metric_name]
        what, worse_by, spread = verdict(metric, a, b)
        rows.append({
            "metric": metric_name, "unit": metric.unit,
            "a": a["median"], "b": b["median"],
            "spread_a": _spread(a), "spread_b": _spread(b),
            "bound": metric.bound, "worse_by": worse_by,
            "spread": spread, "verdict": what,
        })
    # The final state must not change; the kernel-event count may (an
    # optimisation can remove events), so it is reported, not gated.
    for field, what in (("state_digest", "differs"),
                        ("kernel_events", "changed")):
        if wa["untraced"][field] != wb["untraced"][field]:
            rows.append({"metric": field, "verdict": what,
                         "a": wa["untraced"][field],
                         "b": wb["untraced"][field]})
    return rows


def layer_rows(wa, wb):
    """``(movers, exact_diffs)`` of the two traced runs."""
    la, lb = wa["traced"]["per_layer"], wb["traced"]["per_layer"]
    timed = [m.name for m in spec.PER_LAYER
             if m.name.endswith("self_us_per_op")]
    total_a = sum(la[n] for n in timed) or 1.0
    total_b = sum(lb[n] for n in timed) or 1.0
    movers = sorted(
        ({"metric": n, "a": la[n], "b": lb[n],
          "share_a": la[n] / total_a, "share_b": lb[n] / total_b}
         for n in timed),
        key=lambda row: abs(row["share_b"] - row["share_a"]), reverse=True,
    )[:TOP_MOVERS]
    exact = [
        {"metric": m.name, "a": la[m.name], "b": lb[m.name]}
        for m in spec.PER_LAYER
        if spec.is_exact(m.name) and la[m.name] != lb[m.name]
    ]
    return movers, exact


def compare(a, b, force=False):
    """The whole comparison as data (see :func:`render` for the text)."""
    warnings = check_comparable(a, b, force)
    out = {"warnings": warnings, "workloads": {}}
    for name in spec.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        movers, exact = layer_rows(wa, wb)
        out["workloads"][name] = {
            "end_to_end": end_to_end_rows(name, wa, wb),
            "movers": movers, "exact_diffs": exact,
        }
    return out


def render(result):
    lines = [f"warning: {w}" for w in result["warnings"]]
    for name, section in result["workloads"].items():
        lines.append(f"\n{name}")
        lines.append(
            f"  {'metric':<20}{'A median':>14}{'B median':>14}"
            f"{'iqr A':>8}{'iqr B':>8}{'bound':>8}{'worse by':>10}  verdict")
        for row in section["end_to_end"]:
            if row["verdict"] in ("differs", "changed"):
                lines.append(f"  {row['metric']:<20} {row['verdict']}: "
                             f"{row['a']} vs {row['b']}")
                continue
            lines.append(
                f"  {row['metric']:<20}{row['a']:>14.6g}{row['b']:>14.6g}"
                f"{100 * row['spread_a']:>7.1f}%{100 * row['spread_b']:>7.1f}%"
                f"{100 * row['bound']:>7.1f}%{100 * row['worse_by']:>+9.1f}%"
                f"  {row['verdict']} [{row['unit']}]")
        lines.append("  per-layer time that moved most "
                     "(share of attributed host time):")
        for row in section["movers"]:
            lines.append(
                f"    {row['metric']:<42}{row['a']:>10.2f} -> "
                f"{row['b']:>10.2f} us/op   "
                f"{100 * row['share_a']:>5.1f}% -> "
                f"{100 * row['share_b']:>5.1f}%")
        if section["exact_diffs"]:
            lines.append("  exact counts that differ:")
            for row in section["exact_diffs"]:
                lines.append(f"    {row['metric']:<42}{row['a']!r} -> "
                             f"{row['b']!r}")
        else:
            lines.append("  exact counts: identical")
    return "\n".join(lines)


def regressions(result):
    """Rows that should fail a gate: regressed or differing outputs."""
    return [
        (name, row["metric"], row["verdict"])
        for name, section in result["workloads"].items()
        for row in section["end_to_end"]
        if row["verdict"] in ("regressed", "differs")
    ]
