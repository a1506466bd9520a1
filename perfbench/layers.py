"""Per-layer metrics from the records of a traced run (worker.py --trace 1).

Times and counts are per traced pass: summed over the traced passes and
divided by their number.  A span's self time excludes its child spans; a
layer's self time is the sum over the functions traced in its module (see
tracing.TRACED), so the layers' self times add up to the time spent in
`cli.main`.  A ratio whose base is zero reads 0.
"""

from __future__ import annotations

import statistics

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("paving.self_s", "s", "lower"),
    ("paving.iter_fillings.self_s", "s", "lower"),
    ("paving.fillings", "count", "lower"),
    ("paving.fillings_per_s", "1/s", "higher"),
    ("paving.poincare.total_s", "s", "lower"),
    ("paving.enumerate_cells.self_s", "s", "lower"),
    ("paving.enumerate_cells.calls", "count", "lower"),
    ("paving.descriptor_ratio", "ratio", "lower"),
    ("paving.profile.self_s", "s", "lower"),
    ("paving.r0.self_s", "s", "lower"),
    ("combinatorics.self_s", "s", "lower"),
    ("combinatorics.tableaux", "count", "lower"),
    ("exactla.self_s", "s", "lower"),
    ("exactla.generic_flag.self_s", "s", "lower"),
    ("exactla.generic_flag.calls", "count", "lower"),
    ("exactla.bk_generator.self_s", "s", "lower"),
    ("exactla.bk_generator.calls", "count", "lower"),
    ("exactla.verify_flag_membership.self_s", "s", "lower"),
    ("exactla.verify_flag_membership.calls", "count", "lower"),
    ("exactla.difference_residual.self_s", "s", "lower"),
    ("exactla.difference_residual.calls", "count", "lower"),
    ("exactla.exact_gf.self_s", "s", "lower"),
    ("exactla.flags_per_cell", "ratio", "lower"),
    ("domains.poly_terms", "count", "lower"),
    ("domains.terms_per_s", "1/s", "higher"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.m_vectors.self_s", "s", "lower"),
    ("oracle.m_vectors.calls", "count", "lower"),
    ("oracle.points", "count", "lower"),
    ("oracle.points_per_s", "1/s", "higher"),
    ("oracle.batch_bytes", "bytes", "lower"),
    ("oracle.batch_bytes_max", "bytes", "lower"),
    ("oracle.variety_point_counts.self_s", "s", "lower"),
    ("oracle.brute_exact.self_s", "s", "lower"),
    ("verify.run_verification.self_s", "s", "lower"),
    ("verify.cell_tables_per_run", "count", "lower"),
    ("verify.walks_per_run", "count", "lower"),
    ("trace_overhead_frac", "fraction", "lower"),
    ("span_coverage_frac", "fraction", "higher"),
]
BRUTE_EXACT = ("oracle.dw_equals_cell", "oracle.zeros_structure_check",
               "oracle.conjugation_invariance")
EXACT_GF = ("exactla.bruhat_canonical_form", "exactla.factor_unipotent")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(records: list[dict], n_ops: int) -> tuple[dict, list[str]]:
    traces = [r for r in records if "trace" in r]
    if not traces:
        raise RuntimeError("the traced run finished no traced pass")
    k = len(traces)
    calls: dict[str, float] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    batch_max = 0.0
    for t in traces:
        for name, (c, tot, sf) in t["trace"]["stats"].items():
            calls[name] = calls.get(name, 0) + c / k
            total[name] = total.get(name, 0.0) + tot / k
            self_s[name] = self_s.get(name, 0.0) + sf / k
        for name, v in t["trace"]["counts"].items():
            counts[name] = counts.get(name, 0.0) + v / k
        batch_max = max(batch_max, t["trace"]["counts"].get("oracle.batch_bytes_max", 0.0))

    def layer_self(prefix: str) -> float:
        return sum(v for name, v in self_s.items() if name.startswith(prefix + "."))

    traced_passes = {t["pass"] for t in traces}
    op_recs = [r for r in records if "op" in r]
    pass_s = {p: sum(r["s"] for r in rs) for p, rs in complete_passes(op_recs, n_ops).items()}
    traced = [s for p, s in pass_s.items() if p in traced_passes]
    untraced = [s for p, s in pass_s.items() if p % 2 == 0]
    runs = calls.get("verify.run_verification", 0)
    values = {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.out_bytes": sum(r["out_bytes"] for r in op_recs if r["pass"] in traced_passes) / k,
        "paving.self_s": layer_self("paving"),
        "paving.iter_fillings.self_s": self_s.get("paving.iter_fillings", 0.0),
        "paving.fillings": counts.get("paving.fillings", 0.0),
        "paving.fillings_per_s": _ratio(counts.get("paving.fillings", 0.0),
                                        total.get("paving.iter_fillings", 0.0)),
        "paving.poincare.total_s": total.get("paving.poincare", 0.0),
        "paving.enumerate_cells.self_s": self_s.get("paving.enumerate_cells", 0.0),
        "paving.enumerate_cells.calls": calls.get("paving.enumerate_cells", 0),
        "paving.descriptor_ratio": _ratio(total.get("paving.enumerate_cells", 0.0),
                                          counts.get("paving.walk_in_cells_s", 0.0)),
        "paving.profile.self_s": self_s.get("paving.inversion_profile", 0.0),
        "paving.r0.self_s": self_s.get("paving.r0_tableau", 0.0),
        "combinatorics.self_s": layer_self("combinatorics"),
        "combinatorics.tableaux": calls.get("combinatorics.Tableau", 0),
        "exactla.self_s": layer_self("exactla"),
        "exactla.exact_gf.self_s": sum(self_s.get(n, 0.0) for n in EXACT_GF),
        "exactla.flags_per_cell": _ratio(calls.get("exactla.generic_flag", 0),
                                         counts.get("exactla.flags_for_cells", 0.0)),
        "domains.poly_terms": counts.get("domains.poly_terms", 0.0),
        "domains.terms_per_s": _ratio(counts.get("domains.poly_terms", 0.0),
                                      total.get("exactla.generic_flag", 0.0)),
        "oracle.self_s": layer_self("oracle"),
        "oracle.m_vectors.self_s": self_s.get("oracle._m_vectors", 0.0),
        "oracle.m_vectors.calls": calls.get("oracle._m_vectors", 0),
        "oracle.points": counts.get("oracle.points", 0.0),
        "oracle.points_per_s": _ratio(counts.get("oracle.points", 0.0),
                                      total.get("oracle._m_vectors", 0.0)),
        "oracle.batch_bytes": counts.get("oracle.batch_bytes", 0.0),
        "oracle.batch_bytes_max": batch_max,
        "oracle.variety_point_counts.self_s": self_s.get("oracle.variety_point_counts", 0.0),
        "oracle.brute_exact.self_s": sum(self_s.get(n, 0.0) for n in BRUTE_EXACT),
        "verify.run_verification.self_s": self_s.get("verify.run_verification", 0.0),
        "verify.cell_tables_per_run": _ratio(counts.get("verify.cell_tables", 0.0), runs),
        "verify.walks_per_run": _ratio(counts.get("verify.walks", 0.0), runs),
        "trace_overhead_frac": (_ratio(statistics.median(traced), statistics.median(untraced)) - 1.0
                                if traced and untraced else 0.0),
        "span_coverage_frac": _ratio(sum(t["trace"]["root_s"] for t in traces),
                                     sum(t["trace"]["pass_s"] for t in traces)),
    }
    for fn in ("generic_flag", "bk_generator", "verify_flag_membership", "difference_residual"):
        values[f"exactla.{fn}.self_s"] = self_s.get(f"exactla.{fn}", 0.0)
        values[f"exactla.{fn}.calls"] = calls.get(f"exactla.{fn}", 0)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}
    layer_sum = sum(layer_self(p) for p in ("paving", "combinatorics", "exactla", "oracle",
                                            "verify")) + values["cli.self_s"]
    notes = [
        f"per traced pass, over {k} traced and {len(untraced)} untraced complete passes",
        f"layer self times sum to {layer_sum:.6g} s per traced pass, "
        f"traced wall {statistics.fmean(traced) if traced else 0.0:.6g} s",
        "oracle.batch_bytes* are computed from array shapes: q^l(w) * n^2 * 8 bytes "
        "for one (N, n, n) int64 array per _m_vectors call",
    ]
    return metrics, notes


def complete_passes(op_recs: list[dict], n_ops: int) -> dict[int, list[dict]]:
    """The records of every pass in which all n_ops ops ran and were timed."""
    by_pass: dict[int, list[dict]] = {}
    for r in op_recs:
        by_pass.setdefault(r["pass"], []).append(r)
    return {p: rs for p, rs in by_pass.items()
            if len(rs) == n_ops and all(r["s"] is not None for r in rs)}
