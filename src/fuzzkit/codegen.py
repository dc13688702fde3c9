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
run, entered only when one of its terms fired, is one call to a nested
helper over a literal tuple of ``(x, column values...)`` points.  There is
one helper per run width; it walks the points once, and for runs of two
terms in a loop of its own when only one of them fired.  Other operator
choices fill a list of aggregated degrees over each fired term's support,
then defuzzify it.

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
import types

from . import _emit
from .engine import _lower, _zero_fire_value
from .errors import CodegenError
from .model import FuzzySystem, SugenoConstant, SugenoLinear, SystemKind
from .norms import Defuzzifier, Implication, SNorm

_WIDTH = 88


def _wrap(w: _emit.Writer, head: str, text: str) -> None:
    # Greedy fill at _WIDTH columns, breaking only at the spaces of ``text``
    # (what textwrap.wrap gives for these literals, at a fraction of its
    # cost).  ``head`` starts the first line whole, so a break can never land
    # outside a bracket that ``head`` opens; a word longer than a line stays
    # whole on its own line.
    indent = "    " * w.level
    words = text.split(" ")
    line = indent + head + words[0]
    for word in words[1:]:
        if len(line) + 1 + len(word) <= _WIDTH:
            line += " " + word
        else:
            w.lines.append(line)
            line = indent + "    " + word
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
    helpers_at, run_widths = len(w.lines), set()
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
                _emit_mamdani_output(w, fis, lowering, out_name, var, o, local, cons,
                                     run_widths)
        w.emit(f"return ({', '.join(results)})" if len(results) > 1
               else f"return {results[0]}")
    if run_widths:
        hw = _emit.Writer()
        hw.level = 1
        for k in sorted(run_widths):
            _emit_run_helper(hw, fis.settings.implication, k)
        w.lines[helpers_at:helpers_at] = hw.lines
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


def _emit_mamdani_output(w, fis, lowering, out_name, var, o, local, cons,
                         run_widths) -> None:
    # cons: (activation expression, term row) per consequent of out_name,
    # in rule order; run_widths collects the run helpers the centroid pass calls.
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
               f"one helper call per run of points the same terms cover")
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
                           [(strengths[t], t) for t in terms], run_widths)
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


def _emit_run_centroid(w, implication, lowering, o, strengths, run_widths) -> None:
    """Max-aggregate and sum the centroid of output ``o`` in one pass.

    ``strengths`` pairs each reached term's strength local with its row, in
    declaration order.  The grid is split at generation time into maximal
    runs of points where the same terms are positive; each run is guarded by
    "some covering term fired" and walked by one call to the nested helper
    for its width (``_emit_run_helper``, whose width is added to
    ``run_widths``) over a literal tuple of ``(x, column values...)`` points.
    A run of one point is straight-line code instead, which keeps the
    robot's source smaller than a one-item call would.  Skipped points would
    add aggregated degree 0.0 (a term that did not fire or is not positive
    there implicates to at most 0.0), and both sums start at 0.0, so
    skipping them leaves the left-to-right sums bit for bit unchanged.
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
        if j - lo > 1:
            run_widths.add(len(run))
            pts = repr(tuple(zip(xs[lo:j], *(cols[k][1][lo:j] for k in run))))
            _wrap(w, f"_den{o}, _num{o} = _run{len(run)}(",
                  f"{pts}, {', '.join(acts)}, _den{o}, _num{o})")
        else:
            x = _emit.lit(xs[lo])
            for i, k in enumerate(run):
                _implicate_lines(w, implication, acts[i], _emit.lit(cols[k][1][lo]),
                                 "_w" if i else "_v")
                if i:
                    w.emit("_v = _w if _w > _v else _v")
            w.emit(f"_den{o} += _v")
            w.emit(f"_num{o} += {x} * _v")
        w.level -= 1


def _emit_run_helper(w, implication, k) -> None:
    """Nested helper ``_run{k}(points, s_0, ..., s_{k-1}, den, num)`` that adds
    the implicated, max-combined degrees of a run covered by ``k`` terms to
    the centroid sums and returns ``(den, num)``.

    A run of two terms often sees only one of them fired; ``_run2`` then
    walks a loop that implicates that term's column alone.  The other term
    implicates to 0.0 (under MIN and PROD alike) and ``max(v, 0.0)`` is ``v``
    for ``v >= 0``, so the sums get the same bits the general loop would add.
    Other widths have the general loop only.
    """
    ss = [f"_s{i}" for i in range(k)]
    head = f"for _x, {', '.join(f'_c{i}' for i in range(k))} in _pts:"

    def loop(terms):
        w.emit(head)
        w.level += 1
        for n, i in enumerate(terms):
            _implicate_lines(w, implication, ss[i], f"_c{i}", "_w" if n else "_v")
            if n:
                w.emit("_v = _w if _w > _v else _v")
        w.emit("_den += _v")
        w.emit("_num += _x * _v")
        w.level -= 1

    w.emit(f"def _run{k}(_pts, {', '.join(ss)}, _den, _num):")
    w.level += 1
    if k != 2:
        loop(range(k))
    else:
        w.emit("if not _s1:")
        w.level += 1
        loop([0])
        w.level -= 1
        w.emit("elif not _s0:")
        w.level += 1
        loop([1])
        w.level -= 1
        w.emit("else:")
        w.level += 1
        loop(range(2))
        w.level -= 1
    w.emit("return _den, _num")
    w.level -= 1


def load(source: str):
    """Execute generated source and return the function it defines."""
    ns: dict = {}
    exec(compile(source, "<generated>", "exec"), ns)
    fns = [v for v in ns.values() if isinstance(v, types.FunctionType)]
    if len(fns) != 1:
        raise CodegenError(f"expected exactly one function, found {len(fns)}")
    return fns[0]
