"""The per-layer metrics: which calls are counted and how totals become metrics.

Every time below is per pass and inclusive (a call's own time plus the
calls it makes), except ``<layer>.self_s``, which is the time spent in a
layer's own code.  The self times of all layers add up to the pass's op
time in the traced process.
"""

from tracer import LAYERS

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [("%s.self_s" % layer, "s", "lower") for layer in LAYERS] + [
    ("catalog.load_s", "s", "lower"),
    ("catalog.verify_entry_s", "s", "lower"),
    ("catalog.verify_entry_calls", "count", "lower"),
    ("catalog.family_build_s", "s", "lower"),
    ("textio.parse_s", "s", "lower"),
    ("textio.parse_chars", "count", "lower"),
    ("textio.format_s", "s", "lower"),
    ("reconstruct.pieces_s", "s", "lower"),
    ("reconstruct.pieces_calls", "count", "lower"),
    ("reconstruct.parse_system_s", "s", "lower"),
    ("reconstruct.check_solution_s", "s", "lower"),
    ("nijenhuis.torsion_s", "s", "lower"),
    ("nijenhuis.torsion_calls", "count", "lower"),
    ("nijenhuis.torsion_components", "count", "lower"),
    ("nijenhuis.nondeg_s", "s", "lower"),
    ("nijenhuis.change_s", "s", "lower"),
    ("polymatrix.det_s", "s", "lower"),
    ("polymatrix.det_calls", "count", "lower"),
    ("polymatrix.charpoly_s", "s", "lower"),
    ("polymatrix.adjugate_s", "s", "lower"),
    ("polymatrix.matmul_s", "s", "lower"),
    ("polymatrix.peak_det_terms", "count", "lower"),
    ("polyring.mul_calls", "count", "lower"),
    ("polyring.mul_s", "s", "lower"),
    ("polyring.term_products", "count", "lower"),
    ("polyring.cancel_ratio", "ratio", "lower"),
    ("polyring.peak_terms", "count", "lower"),
    ("polyring.divide_calls", "count", "lower"),
    ("polyring.divide_s", "s", "lower"),
    ("polyring.divide_fail_ratio", "ratio", "lower"),
    ("polyring.substitute_s", "s", "lower"),
    ("polyring.ring_width", "count", "lower"),
    ("exactfield.mul_calls", "count", "lower"),
    ("exactfield.add_calls", "count", "lower"),
    ("exactfield.inverse_calls", "count", "lower"),
    ("exactfield.irrational_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def probes(poly_cls, failure_cls):
    """Counter updates keyed by wrapped name; each gets (state, args, result)."""

    def poly_result(st, args, result):
        if isinstance(result, poly_cls):
            peaks = st.peaks
            if len(result.terms) > peaks["polyring.peak_terms"]:
                peaks["polyring.peak_terms"] = len(result.terms)
            if result.nvars > peaks["polyring.ring_width"]:
                peaks["polyring.ring_width"] = result.nvars

    def poly_mul(st, args, result):
        if isinstance(args[1], poly_cls):
            st.counts["polyring.term_products"] += (
                len(args[0].terms) * len(args[1].terms))
            st.counts["polyring.product_terms"] += len(result.terms)
        poly_result(st, args, result)

    def divide(st, args, result):
        if isinstance(result, failure_cls):
            st.counts["polyring.divide_failures"] += 1
        poly_result(st, args, result)

    def scalar_op(st, args, result):
        if args[0].rad or getattr(args[1], "rad", 0):
            st.counts["exactfield.irrational_ops"] += 1

    def determinant(st, args, result):
        if len(result.terms) > st.peaks["polymatrix.peak_det_terms"]:
            st.peaks["polymatrix.peak_det_terms"] = len(result.terms)

    def torsion(st, args, result):
        st.counts["nijenhuis.torsion_components"] += result.n ** 3

    def parse(st, args, result):
        st.counts["textio.parse_chars"] += len(args[0])

    out = {
        "polyring.exact_divide": divide,
        "polymatrix.PolyMatrix.determinant": determinant,
        "nijenhuis.torsion": torsion,
        "textio.parse_poly": parse,
    }
    for name in ("__mul__", "__rmul__"):
        out["polyring.Poly.%s" % name] = poly_mul
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__pow__",
                 "substitute", "substitute_linear"):
        out["polyring.Poly.%s" % name] = poly_result
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        out["exactfield.Scalar.%s" % name] = scalar_op
    return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def metrics(self_s, incl_s, calls, counts, peaks):
    """Per-layer metric values of one traced pass, by name."""
    scalar_ops = (calls["exactfield.Scalar.__mul__"] + calls["exactfield.Scalar.__rmul__"]
                  + calls["exactfield.Scalar.__add__"] + calls["exactfield.Scalar.__radd__"])
    out = {"%s.self_s" % layer: self_s[layer] for layer in LAYERS}
    out.update({
        "catalog.load_s": incl_s["catalog.load_catalog"],
        "catalog.verify_entry_s": incl_s["catalog.verify_entry"],
        "catalog.verify_entry_calls": calls["catalog.verify_entry"],
        "catalog.family_build_s": incl_s["catalog.family"],
        "textio.parse_s": incl_s["textio.parse"],
        "textio.parse_chars": counts["textio.parse_chars"],
        "textio.format_s": incl_s["textio.format"],
        "reconstruct.pieces_s": incl_s["reconstruct.reconstruction_pieces"],
        "reconstruct.pieces_calls": calls["reconstruct.reconstruction_pieces"],
        "reconstruct.parse_system_s": incl_s["reconstruct.parse_system"],
        "reconstruct.check_solution_s": incl_s["reconstruct.check_solution"],
        "nijenhuis.torsion_s": incl_s["nijenhuis.torsion"],
        "nijenhuis.torsion_calls": calls["nijenhuis.torsion"],
        "nijenhuis.torsion_components": counts["nijenhuis.torsion_components"],
        "nijenhuis.nondeg_s": incl_s["nijenhuis.is_differentially_nondegenerate"],
        "nijenhuis.change_s": incl_s["nijenhuis.change_coordinates"],
        "polymatrix.det_s": incl_s["polymatrix.PolyMatrix.determinant"],
        "polymatrix.det_calls": calls["polymatrix.PolyMatrix.determinant"],
        "polymatrix.charpoly_s": incl_s["polymatrix.charpoly_sigmas"],
        "polymatrix.adjugate_s": incl_s["polymatrix.PolyMatrix.adjugate"],
        "polymatrix.matmul_s": incl_s["polymatrix.PolyMatrix.__matmul__"],
        "polymatrix.peak_det_terms": peaks["polymatrix.peak_det_terms"],
        "polyring.mul_calls": calls["polyring.Poly.__mul__"] + calls["polyring.Poly.__rmul__"],
        "polyring.mul_s": incl_s["polyring.mul"],
        "polyring.term_products": counts["polyring.term_products"],
        "polyring.cancel_ratio": 1.0 - _ratio(counts["polyring.product_terms"],
                                              counts["polyring.term_products"]),
        "polyring.peak_terms": peaks["polyring.peak_terms"],
        "polyring.divide_calls": calls["polyring.exact_divide"],
        "polyring.divide_s": incl_s["polyring.exact_divide"],
        "polyring.divide_fail_ratio": _ratio(counts["polyring.divide_failures"],
                                             calls["polyring.exact_divide"]),
        "polyring.substitute_s": incl_s["polyring.Poly.substitute"],
        "polyring.ring_width": peaks["polyring.ring_width"],
        "exactfield.mul_calls": calls["exactfield.Scalar.__mul__"]
        + calls["exactfield.Scalar.__rmul__"],
        "exactfield.add_calls": calls["exactfield.Scalar.__add__"]
        + calls["exactfield.Scalar.__radd__"],
        "exactfield.inverse_calls": calls["exactfield.Scalar.inverse"],
        "exactfield.irrational_share": _ratio(counts["exactfield.irrational_ops"],
                                              scalar_ops),
    })
    return out
