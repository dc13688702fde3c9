"""Compile a fuzzy system into standalone, dependency-free source text.

The emitted text contains one plain function (plus an optional
``from math import ...`` line) taking one float per input variable in
declaration order and returning one float per output.  Membership formulas,
norms, the aggregation loop and the defuzzifier are specialized with the
system's constants baked in; consequent curves are pre-sampled onto the
output grids at generation time.

Under max aggregation with the centroid defuzzifier, each Mamdani output is
aggregated and summed in one pass: the grid is split at generation time into
maximal runs of points covered by the same positive term columns, and each
run is one loop over literal slices of the grid and those columns, entered
only when one of its terms fired.  Other operator choices fill a list of
aggregated degrees over each fired term's support, then defuzzify it.

Generated functions reproduce the interpreter bit for bit: the antecedent
prologue is the one ``_emit.emit_antecedents`` writes for the engine's
compiled firing, consequents follow the engine's lowering of the system
(``engine._lower``), consequent columns are rows of the term matrix the
interpreter aggregates, and grid reductions accumulate in the same
left-to-right order as the engine's ``np.add.accumulate`` totals.  Sums are
plain left folds, never ``sum`` or ``math.fsum``, which round differently.
"""

from __future__ import annotations

import itertools
import textwrap
import types

from . import _emit
from .engine import _lower, _zero_fire_value
from .errors import CodegenError
from .model import FuzzySystem, SugenoConstant, SugenoLinear, SystemKind
from .norms import Defuzzifier, Implication, SNorm

_WIDTH = 88


def _wrap(w: _emit.Writer, head: str, text: str) -> None:
    # Breaks only inside ``text``: ``head`` starts the first line whole, so a
    # break can never land outside a bracket that ``head`` opens.
    indent = "    " * w.level
    for line in textwrap.wrap(text, width=_WIDTH, initial_indent=indent + head,
                              subsequent_indent=indent + "    ",
                              break_long_words=False, break_on_hyphens=False):
        w.lines.append(line)


def _implicate_lines(w: _emit.Writer, kind: Implication, act: str, curve: str,
                     out: str) -> None:
    # Mirrors norms.implicate: np.minimum(curve, act) / act * curve.
    if kind is Implication.MIN:
        w.emit(f"{out} = {curve} if {curve} < {act} else {act}")
    else:
        w.emit(f"{out} = {act} * {curve}")


def _consequent_expr(value, params: dict[str, str]) -> str:
    if isinstance(value, SugenoConstant):
        return _emit.lit(value.value)
    parts = [f"{_emit.lit(c)} * {params[n]}" for n, c in value.coeffs]
    parts.append(_emit.lit(value.offset))
    return "(" + " + ".join(parts) + ")"


def generate(fis: FuzzySystem, function_name: str | None = None,
             inline_mfs: bool = True, antecedents_only: bool = False) -> str:
    """Emit standalone source for ``fis``.

    ``function_name`` overrides the (sanitized) system name;
    ``inline_mfs=False`` factors membership formulas into nested helper
    functions instead of inlining them; ``antecedents_only`` makes the
    function return the tuple of rule activations instead of crisp outputs.
    """
    if fis.kind is SystemKind.MAMDANI_IT2:
        raise CodegenError("codegen unsupported for interval type-2")
    taken = {"exp", "log", "abs"}
    fname = _emit.sanitize(function_name or fis.name, set(taken), fallback="f")
    taken.add(fname)
    params = {name: _emit.sanitize(name, taken) for name in fis.inputs}

    lowering = _lower(fis)
    w = _emit.Writer()
    w.emit(f"def {fname}({', '.join(params.values())}):")
    w.level += 1
    ins = ", ".join(fis.inputs)
    outs = ", ".join(fis.outputs)
    if antecedents_only:
        w.emit(f'"""Rule activation vector of {fis.name!r} for ({ins})."""')
    else:
        w.emit(f'"""Map ({ins}) to ({outs}) by fuzzy inference ({fis.name!r})."""')
    acts = _emit.emit_antecedents(w, fis, lowering.relations, params, inline_mfs)

    if antecedents_only:
        w.emit(f"return ({', '.join(acts)}{',' if len(acts) == 1 else ''})")
    else:
        results = []
        for o, (out_name, var) in enumerate(fis.outputs.items()):
            local = f"_out{o}"
            results.append(local)
            cons = [(acts[i], row) for i, row in lowering.by_output[o]]
            if fis.kind is SystemKind.SUGENO:
                _emit_sugeno_output(w, fis, out_name, var, o, local, cons, params)
            else:
                _emit_mamdani_output(w, fis, lowering, out_name, var, o, local, cons)
        w.emit(f"return ({', '.join(results)})" if len(results) > 1
               else f"return {results[0]}")
    if w.uses:
        w.lines[:0] = [f"from math import {', '.join(sorted(w.uses))}", "", ""]
    return w.text()


def _emit_sugeno_output(w, fis, out_name, var, o, local, cons, params) -> None:
    # cons: (activation expression, term row) per consequent of out_name,
    # in rule order.
    w.emit(f"# output {out_name}")
    num, den = f"_num{o}", f"_den{o}"
    w.emit(f"{num} = 0.0")
    w.emit(f"{den} = 0.0")
    terms = tuple(var.terms.values())
    for act, row in cons:
        expr = _consequent_expr(terms[row], params)
        w.emit(f"{num} = {num} + {act} * {expr}")
        w.emit(f"{den} = {den} + {act}")
    zero = _emit.lit(_zero_fire_value(fis, out_name, var))
    w.emit(f"{local} = {num} / {den} if {den} > 0.0 else {zero}")


def _emit_mamdani_output(w, fis, lowering, out_name, var, o, local, cons) -> None:
    # cons: (activation expression, term row) per consequent of out_name,
    # in rule order.
    settings = fis.settings
    resolution = settings.resolution
    grouped = settings.aggregation is SNorm.MAX
    fused = grouped and settings.defuzzifier is Defuzzifier.CENTROID

    if grouped:
        # Terms reached by any rule, in declaration order; each contributes
        # its strongest activation (exact under max-aggregation).
        terms = sorted({t for _, t in cons})
    else:
        terms = list(dict.fromkeys(t for _, t in cons))

    if fused:
        w.emit(f"# output {out_name}: centroid over {resolution} grid points, "
               f"one loop per run of points the same terms cover")
    else:
        w.emit(f"# output {out_name}: grid of {resolution} points with "
               f"pre-sampled term curves (trimmed to their nonzero support)")
        _wrap(w, f"_xs{o} = ", repr(tuple(lowering.grids[o].tolist())))
        col_names, col_starts = {}, {}
        for k, t in enumerate(terms):
            col = lowering.curves[0, o, t].tolist()
            live = [j for j, c in enumerate(col) if c != 0.0]
            if not live:
                col_names[t] = None  # curve is identically zero on the grid
                continue
            col_names[t] = f"_col{o}_{k}"
            col_starts[t] = live[0]
            _wrap(w, f"{col_names[t]} = ", repr(tuple(col[live[0]:live[-1] + 1])))

    if grouped:
        strengths = {}
        for k, t in enumerate(terms):
            strengths[t] = f"_s{o}_{k}"
            w.emit(f"{strengths[t]} = 0.0  # strength of {list(var.terms)[t]}")
        for act, t in cons:
            w.emit(f"if {act} > {strengths[t]}:")
            w.level += 1
            w.emit(f"{strengths[t]} = {act}")
            w.level -= 1

    zero = _emit.lit(_zero_fire_value(fis, out_name, var))
    if fused:
        _emit_run_centroid(w, settings.implication, lowering, o,
                           [(strengths[t], t) for t in terms])
        w.emit(f"{local} = _num{o} / _den{o} if _den{o} > 0.0 else {zero}")
        return

    # Zero-strength terms leave the curve untouched (implication yields 0,
    # aggregation with 0 is the identity), so they are skipped outright.
    w.emit(f"_mus{o} = [0.0] * {resolution}")
    passes = [(strengths[t], t) for t in terms] if grouped else cons
    for act, t in passes:
        if col_names[t] is None:
            continue
        start = col_starts[t]
        offset = f", {start}" if start else ""
        w.emit(f"if {act} > 0.0:")
        w.level += 1
        w.emit(f"for _j, _c in enumerate({col_names[t]}{offset}):")
        w.level += 1
        _implicate_lines(w, settings.implication, act, "_c", "_v")
        if grouped:
            w.emit(f"if _v > _mus{o}[_j]:")
            w.level += 1
            w.emit(f"_mus{o}[_j] = _v")
            w.level -= 1
        else:
            w.emit(f"_mu = _mus{o}[_j]")
            _emit.emit_snorm(w, settings.aggregation, "_mu", "_v", "_mu")
            w.emit(f"_mus{o}[_j] = _mu")
        w.level -= 2

    defuzz = settings.defuzzifier
    if defuzz is Defuzzifier.CENTROID:
        w.emit(f"_num{o} = 0.0")
        w.emit(f"_den{o} = 0.0")
        w.emit(f"for _x, _v in zip(_xs{o}, _mus{o}):")
        w.level += 1
        w.emit(f"_den{o} = _den{o} + _v")
        w.emit(f"_num{o} = _num{o} + _x * _v")
        w.level -= 1
        w.emit(f"{local} = _num{o} / _den{o} if _den{o} > 0.0 else {zero}")
        return

    if defuzz is Defuzzifier.BISECTOR:
        w.emit(f"_tot{o} = 0.0")
        w.emit(f"for _v in _mus{o}:")
        w.level += 1
        w.emit(f"_tot{o} = _tot{o} + _v")
        w.level -= 1
        w.emit(f"if _tot{o} > 0.0:")
        w.level += 1
        w.emit(f"_half = 0.5 * _tot{o}")
        w.emit("_acc = 0.0")
        w.emit(f"for _x, _v in zip(_xs{o}, _mus{o}):")
        w.level += 1
        w.emit("_acc = _acc + _v")
        w.emit("if _acc >= _half:")
        w.level += 1
        w.emit(f"{local} = _x")
        w.emit("break")
        w.level -= 2
    else:
        w.emit(f"_top{o} = 0.0")
        w.emit(f"for _v in _mus{o}:")
        w.level += 1
        w.emit(f"if _v > _top{o}:")
        w.level += 1
        w.emit(f"_top{o} = _v")
        w.level -= 2
        w.emit(f"if _top{o} > 0.0:")
        w.level += 1
        if defuzz is Defuzzifier.FIRST_OF_MAXIMA:
            w.emit(f"for _x, _v in zip(_xs{o}, _mus{o}):")
            w.level += 1
            w.emit(f"if _v == _top{o}:")
            w.level += 1
            w.emit(f"{local} = _x")
            w.emit("break")
            w.level -= 2
        elif defuzz is Defuzzifier.LAST_OF_MAXIMA:
            w.emit(f"for _x, _v in zip(_xs{o}, _mus{o}):")
            w.level += 1
            w.emit(f"if _v == _top{o}:")
            w.level += 1
            w.emit(f"{local} = _x")
            w.level -= 2
        else:  # mean of maxima
            w.emit("_sum = 0.0")
            w.emit("_cnt = 0")
            w.emit(f"for _x, _v in zip(_xs{o}, _mus{o}):")
            w.level += 1
            w.emit(f"if _v == _top{o}:")
            w.level += 1
            w.emit("_sum = _sum + _x")
            w.emit("_cnt += 1")
            w.level -= 2
            w.emit(f"{local} = _sum / _cnt")
    w.level -= 1
    w.emit("else:")
    w.level += 1
    w.emit(f"{local} = {zero}")
    w.level -= 1


def _emit_run_centroid(w, implication, lowering, o, strengths) -> None:
    """Max-aggregate and sum the centroid of output ``o`` in one pass.

    ``strengths`` pairs each reached term's strength local with its row, in
    declaration order.  The grid is split at generation time into maximal
    runs of points where the same terms are positive; each run gets one loop
    (a run of one point, straight-line code, which keeps the robot's source
    smaller than a one-item loop would), guarded by "some covering term
    fired".  Skipped points would add aggregated degree 0.0 (a term that did
    not fire or is not positive there implicates to at most 0.0), and both
    sums start at 0.0, so skipping them leaves the left-to-right sums bit for
    bit unchanged.
    """
    xs = lowering.grids[o].tolist()
    cols = [(s, lowering.curves[0, o, t].tolist()) for s, t in strengths]
    w.emit(f"_num{o} = 0.0")
    w.emit(f"_den{o} = 0.0")
    cover = [tuple(k for k, (_, col) in enumerate(cols) if col[j] > 0.0)
             for j in range(len(xs))]
    j = 0
    for run, points in itertools.groupby(cover):
        lo, j = j, j + len(list(points))
        if not run:
            continue
        acts = [cols[k][0] for k in run]
        w.emit(f"if {' or '.join(acts)}:")  # strengths are never negative or NaN
        w.level += 1
        single = j - lo == 1
        if single:
            x, cs = _emit.lit(xs[lo]), [_emit.lit(cols[k][1][lo]) for k in run]
        else:
            x, cs = "_x", [f"_c{i}" for i in range(len(run))]
            columns = ", ".join(repr(tuple(col[lo:j]))
                                for col in (xs, *(cols[k][1] for k in run)))
            _wrap(w, f"for _x, {', '.join(cs)} in zip(", f"{columns}):")
            w.level += 1
        for i, (act, c) in enumerate(zip(acts, cs)):
            _implicate_lines(w, implication, act, c, "_w" if i else "_v")
            if i:
                w.emit("_v = _w if _w > _v else _v")
        w.emit(f"_den{o} += _v")
        w.emit(f"_num{o} += {x} * _v")
        w.level -= 1 if single else 2


def load(source: str):
    """Execute generated source and return the function it defines."""
    ns: dict = {}
    exec(compile(source, "<generated>", "exec"), ns)
    fns = [v for v in ns.values() if isinstance(v, types.FunctionType)]
    if len(fns) != 1:
        raise CodegenError(f"expected exactly one function, found {len(fns)}")
    return fns[0]
