"""CSV and text report emitters.

CSV files start with comment lines ``# key=value`` (library version and the
config hash among them), then a header row, then data rows; a field holding
a comma, a quote or a line break is quoted as the ``csv`` module quotes it.
Floats, numpy scalars included, are rendered with the ``repr`` of a Python
float (shortest round-trip form), so identical computations produce
identical bytes; nothing time- or machine-dependent is written.  Tables are
passed by column; an array column (anything with a ``dtype``) is rendered
in one pass over its ``tolist()``, with no numpy scalar made per value.
The module imports no numpy itself, so the symbolic tasks write their
tables without it.
"""

from __future__ import annotations

from ._version import __version__


def _fmt(v):
    return repr(float(v)) if isinstance(v, float) else str(v)


def _quote(cell):
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(column):
    """A column's CSV cells: a float array through ``float.__repr__``, any
    other array through ``str``, a sequence value by value."""
    if hasattr(column, "dtype"):
        fmt = float.__repr__ if column.dtype.kind == "f" else str
        return map(fmt, column.tolist())
    return map(_quote, map(_fmt, column))


def csv_bytes(meta, header, columns):
    lines = [f"# ncres {__version__}"]
    lines += [f"# {k}={meta[k]}" for k in sorted(meta)]
    lines.append(",".join(map(_quote, header)))
    lines += map(",".join, zip(*map(_cells, columns)))
    return ("\n".join(lines) + "\n").encode()


def residue_csv(breakdown, meta):
    rows = [("interior", breakdown.interior.real, breakdown.interior.imag),
            ("green", breakdown.green.real, breakdown.green.imag),
            ("boundary_pdo", breakdown.boundary_pdo.real,
             breakdown.boundary_pdo.imag),
            ("total", breakdown.total.real, breakdown.total.imag)]
    return csv_bytes(meta, ["block", "value_re", "value_im"], zip(*rows))


def residue_report(breakdown, meta):
    lines = [_report_head("residue", meta)]
    lines.append(f"  interior      {breakdown.interior:.12g}")
    lines.append(f"  green         {breakdown.green:.12g}")
    lines.append(f"  boundary pdo  {breakdown.boundary_pdo:.12g}")
    lines.append(f"  total         {breakdown.total:.12g}")
    return "\n".join(lines) + "\n"


def dixmier_csv(est, meta):
    header_meta = dict(meta)
    header_meta.update({
        "slope": repr(est.slope),
        "window": f"{est.window[0]}..{est.window[1]}",
        "fit_residual": repr(est.fit_residual),
        "cesaro_tail": repr(est.cesaro_tail),
        "cesaro_drift": repr(est.cesaro_drift),
        "omega_consistent": est.omega_consistent,
    })
    # N holds integral floats, written as integers
    return csv_bytes(header_meta,
                     ["N", "sigma_N", "sigma_over_lnN", "cesaro_mean"],
                     [est.cesaro_points.astype("int64"), est.sigma_values,
                      est.ratio_values, est.cesaro_values])


def dixmier_report(est, meta, expected=None):
    lines = [_report_head("dixmier", meta)]
    lines.append(f"  slope estimate   {est.slope:.10g}")
    lines.append(f"  fit window       N in [{est.window[0]}, {est.window[1]}]")
    lines.append(f"  fit residual     {est.fit_residual:.3e}")
    lines.append(f"  cesaro tail      {est.cesaro_tail:.10g} "
                 f"(drift over top decade {est.cesaro_drift:.3e})")
    lines.append(f"  omega consistent {est.omega_consistent}")
    if expected is not None:
        lines.append(reference_line("reference", est.slope, expected))
    return "\n".join(lines) + "\n"


def reference_line(label, value, expected):
    """The report line of a derived ``expected`` value and the deviation of
    ``value`` from it, relative, or absolute where ``expected`` is 0."""
    dev, kind = abs(value - expected), "abs"
    if expected != 0:
        dev, kind = dev / abs(expected), "rel"
    return f"  {label:<16} {expected:.10g} ({kind} dev {dev:.2e})"


def heat_csv(samples, meta):
    return csv_bytes(meta, ["t", "value", "tail_bound"],
                     [samples.t, samples.values, samples.tail_bounds])


def heat_report(fit, meta, expected=None):
    """The heat task's head, then its fit where the document asks for one,
    with the ``expected`` ln t coefficient where the fit has that slot."""
    report = _report_head("heat", meta) + "\n"
    if fit is not None:
        report += fit_report(fit, meta, "heat fit")
        if expected is not None and (0.0, True) in fit.coefficients:
            report += reference_line("ln t reference",
                                     fit.coefficient(0.0, log=True),
                                     expected) + "\n"
    return report


def fit_report(fit, meta, title):
    lines = [_report_head(title, meta)]
    for (e, lg), c in sorted(fit.coefficients.items()):
        name = f"t^{e:g}" + (" * ln t" if lg else "")
        lines.append(f"  {name:<16} {c: .12g}")
    lines.append(f"  residual (rel)   {fit.residual:.3e}")
    lines.append(f"  condition        {fit.condition:.3e}")
    lines.append(f"  halving delta    {fit.cross_delta:.3e}")
    return "\n".join(lines) + "\n"


def zeta_csv(result, meta):
    header_meta = dict(meta)
    header_meta.update({"sigma": repr(result.sigma),
                        "residue": repr(result.residue),
                        "entire_part": repr(result.entire_part),
                        "fit_residual": repr(result.fit.residual),
                        "fit_condition": repr(result.fit.condition),
                        "fit_halving_delta": repr(result.fit.cross_delta)})
    rows = [(e, int(lg), c)
            for (e, lg), c in sorted(result.fit.coefficients.items())]
    return csv_bytes(header_meta, ["exponent", "is_log", "coefficient"],
                     zip(*rows))


def zeta_report(result, meta, expected=None):
    lines = [_report_head("zeta", meta),
             f"  residue at s={result.sigma:g}: {result.residue!r}",
             f"  entire part (diagnostic): {result.entire_part!r}"]
    if expected is not None:
        lines.append(reference_line("reference", result.residue, expected))
    return "\n".join(lines) + "\n" + fit_report(result.fit, meta, "zeta fit")


def parametric_csv(closed, route, meta):
    rows = [("closed_form", closed.real, closed.imag),
            ("expansion_route", route.real, route.imag),
            ("difference", (route - closed).real, (route - closed).imag)]
    return csv_bytes(meta, ["route", "value_re", "value_im"], zip(*rows))


def parametric_report(closed, route, meta):
    lines = [_report_head("parametric", meta),
             f"  closed form      {closed:.12g}",
             f"  expansion route  {route:.12g}",
             f"  difference       {abs(route - closed):.3e}"]
    return "\n".join(lines) + "\n"


def verify_csv(results, meta):
    rows = [(r.name, int(r.passed), r.value, r.expected, r.tolerance)
            for r in results]
    return csv_bytes(meta, ["check", "passed", "value", "expected",
                            "tolerance"], zip(*rows))


def _report_head(title, meta):
    extra = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    return f"ncres {__version__} :: {title} :: {extra}"
