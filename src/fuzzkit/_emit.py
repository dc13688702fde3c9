"""Scalar code emission: the one scalar evaluator of type-1 inference.

The engine's compiled rule firing and output stage, ``engine.eval_proposition``
and the standalone code generator all run text written here:
``emit_antecedents`` writes the antecedent prologue (membership degrees,
then each rule's weighted truth degree), for type-1 and interval type-2
systems alike, ``emit_outputs`` the type-1 output stage after it, and
``emit_readout`` the two-group readout of ``engine.grouped_max_output``.
Membership formulas, defuzzifiers and, in ``norms``, the norms are
statement templates, each written once; a membership function called
directly runs its formula from here, compiled by ``exec_emitted``.

Emitted code reads each sampled table by name (``Writer.bind``): the engine
binds it in the exec namespace, ``codegen`` spells it above the function as
one string (``table_lines``), as compile time follows the token count; for
that reason too a polyline of more than ``CHAIN_NODES`` nodes bisects a
segment table (``emit_mf``).  Only standalone writers keep comments.  Emitted
code calls only ``exp``, ``log``, ``bisect_right``, ``abs``, ``zip`` and
``enumerate``; callers provide them (``Writer.uses`` records the imports).
"""

from __future__ import annotations

import keyword
import math
from bisect import bisect_right

import numpy as np

from .errors import EvaluationError
from .mf import (Gaussian, GeneralizedBell, PiecewiseLinear, Sigmoid,
                 Singleton, Trapezoidal, Triangular)
from .model import And, Not, Or, Relation, SugenoConstant, SystemKind
from .norms import (SNORM_TEMPLATES, TNORM_TEMPLATES, Defuzzifier, Implication, SNorm,
                    TNorm)

WIDTH = 88
IMPORTS = {"exp": "math", "log": "math", "bisect_right": "bisect"}  # name: module
CHAIN_NODES = 8  # polylines of more nodes bisect a table (emit_mf)


def lit(value: float) -> str:
    """Literal spelling of a float; parenthesized when signed so it can be
    embedded in any expression position."""
    r = repr(float(value))
    return f"({r})" if r.startswith("-") else r


class Writer:
    """Indentation-aware line collector: ``uses`` collects the ``IMPORTS``
    the code calls, ``consts`` the tables ``bind`` names.  A standalone
    writer (``prefix`` given) keeps comments and prefixes its table names."""

    def __init__(self, prefix: str | None = None):
        self.lines: list[str] = []
        self.level = 0
        self.uses: set[str] = set()
        self.consts: dict = {}
        self.prefix = prefix
        self._counter = 0

    def emit(self, text: str = "") -> None:
        self.lines.append(("    " * self.level + text) if text else "")

    def emit_block(self, lines) -> None:
        """Each of ``lines``, indented by the current level."""
        indent = "    " * self.level
        self.lines.extend(indent + line for line in lines)

    def comment(self, text: str) -> None:
        if self.prefix is not None:
            self.emit(f"# {text}")

    def bind(self, name: str, table: tuple) -> str:
        """The name under which emitted code reads the tuple ``table``."""
        name = (self.prefix or "") + name
        self.consts[name] = table
        return name

    def sym(self, prefix: str = "_t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def table_lines(name: str, table: tuple) -> list[str]:
    """``name = table`` for a tuple of floats or of equal-width rows of floats:
    their reprs in one string, as adjacent literals wrapped at ``WIDTH``, that
    ``float`` decodes exactly (``float(repr(v)) == v``) when the text runs."""
    width = len(table[0]) if isinstance(table[0], tuple) else 0
    words = [repr(v) for row in table for v in row] if width else list(map(repr, table))
    lines = [f"{name} = tuple(zip(*[map(float, (" if width else f"{name} = tuple(map(float, ("]
    line = '    "' + words[0]
    for word in words[1:]:
        if len(line) + len(word) + 3 > WIDTH:  # no room for the word and ' "'
            lines.append(line + ' "')
            line = '    "' + word
        else:
            line += " " + word
    return lines + [line + '"', f").split())] * {width}))" if width else ").split()))"]


def exec_emitted(w: Writer, filename: str, name: str):
    """Compile the function ``name`` that ``w`` holds, with the names emitted
    code uses and the constants ``w`` bound.

    The function is popped from its namespace, not left bound in its own
    ``__globals__``: emitted code never calls itself by name, and the binding
    would be a reference cycle, so the function, its constants and their
    owner would wait for the cycle collector instead of being freed by
    reference counting when the owner is dropped."""
    ns = {"exp": math.exp, "log": math.log, "bisect_right": bisect_right, "abs": abs,
          "_float": float, "zip": zip, "enumerate": enumerate, "__builtins__": {}, **w.consts}
    exec(compile(w.text(), filename, "exec"), ns)
    return ns.pop(name)


def sanitize(name: str, taken: set[str], fallback: str = "v") -> str:
    """Turn an arbitrary string into a fresh valid Python identifier."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    cleaned = cleaned.lstrip("_")
    if not cleaned or cleaned[0].isdigit():
        cleaned = fallback + cleaned
    if keyword.iskeyword(cleaned):
        cleaned += "_"
    candidate = cleaned
    n = 2
    while candidate in taken:
        candidate = f"{cleaned}{n}"
        n += 1
    taken.add(candidate)
    return candidate


def _logistic(z: str, out: str) -> list[str]:
    return [f"if {z} >= 709.0:", f"    {out} = 0.0", f"elif {z} <= -709.0:", f"    {out} = 1.0",
            "else:", f"    {out} = 1.0 / (1.0 + exp({z}))"]


def emit_mf_def(w: Writer, mf, name: str) -> None:
    """``def name(_x)`` returning mf(_x)."""
    w.emit(f"def {name}(_x):")
    w.level += 1
    emit_mf(w, mf, "_x", "_y")
    w.emit("return _y")
    w.level -= 1


def emit_mf(w: Writer, mf, x: str, out: str) -> None:
    """Statements assigning ``out`` = mf(``x``): the only formula of each
    membership kind, which ``MembershipFunction.__call__`` runs too."""
    if isinstance(mf, (Triangular, Trapezoidal)):
        a, b = lit(mf.a), lit(mf.b)
        if isinstance(mf, Triangular):
            c = d = lit(mf.c)
            top, fall = f"{x} == {b}", f"({c} - {x}) / ({c} - {b})"
        else:
            c, d = lit(mf.c), lit(mf.d)
            top, fall = f"{b} <= {x} <= {c}", f"({d} - {x}) / ({d} - {c})"
        w.emit_block([f"if {top}:", f"    {out} = 1.0", f"elif {x} <= {a} or {x} >= {d}:",
                      f"    {out} = 0.0", f"elif {x} < {b}:",
                      f"    {out} = ({x} - {a}) / ({b} - {a})", "else:", f"    {out} = {fall}"])
        return
    if isinstance(mf, Gaussian):
        w.uses.add("exp")
        d, sigma = w.sym("_d"), lit(mf.sigma)
        w.emit_block([f"{d} = {x} - {lit(mf.mu)}",
                      f"{out} = exp(-({d} * {d}) / (2.0 * {sigma} * {sigma}))"])
        return
    if isinstance(mf, Singleton):
        w.emit(f"{out} = 1.0 if {x} == {lit(mf.c)} else 0.0")
        return
    if isinstance(mf, GeneralizedBell):
        w.uses.update(("exp", "log"))
        t, z = w.sym("_t"), w.sym("_z")
        w.emit_block([f"{t} = abs(({x} - {lit(mf.c)}) / {lit(mf.a)})", f"if {t} == 0.0:",
                      f"    {out} = 1.0", "else:", f"    {z} = 2.0 * {lit(mf.b)} * log({t})",
                      *("    " + line for line in _logistic(z, out))])
        return
    if isinstance(mf, Sigmoid):
        w.uses.add("exp")
        z = w.sym("_z")
        w.emit_block([f"{z} = {lit(-mf.a)} * ({x} - {lit(mf.c)})", *_logistic(z, out)])
        return
    if isinstance(mf, PiecewiseLinear):
        # Each segment's rise and run are subtracted here, once.  Past
        # CHAIN_NODES nodes a bisect of the interior nodes replaces the chain
        # of one comparison per node, faster per call but compiled in time
        # linear in the nodes (0.76 ms at 41, 0.07 ms bisected).  Both pick the
        # same segment, on a node too; NaN fails every comparison and lands in
        # the last segment, whose result is NaN.
        xs, ys = mf._xs, mf._ys
        w.emit_block([f"if {x} <= {lit(xs[0])}:", f"    {out} = {lit(ys[0])}",
                      f"elif {x} >= {lit(xs[-1])}:", f"    {out} = {lit(ys[-1])}"])
        segments = [(x0, y1 - y0, x1 - x0, y0)
                    for (x0, y0), (x1, y1) in zip(mf.points, mf.points[1:])]
        if len(xs) > CHAIN_NODES:
            w.uses.add("bisect_right")
            t = w.sym("_pl")
            w.emit_block(["else:", f"    _xi, _dy, _dx, _yi = {w.bind(f'{t}s', tuple(segments))}"
                          f"[bisect_right({w.bind(f'{t}x', xs[1:-1])}, {x})]",
                          f"    {out} = ({x} - _xi) * _dy / _dx + _yi"])
            return
        for i, (x0, dy, dx, y0) in enumerate(segments):
            w.emit("else:" if i == len(segments) - 1 else f"elif {x} < {lit(xs[i + 1])}:")
            w.emit(f"    {out} = ({x} - {lit(x0)}) * {lit(dy)} / {lit(dx)} + {lit(y0)}")
        if not segments:  # a single node: only NaN gets here
            w.emit_block(["else:", f"    {out} = {x}"])
        return
    raise EvaluationError(f"cannot emit code for membership function {mf!r}")


def _emit_norm(w: Writer, template: str, a: str, b: str, out: str) -> None:
    s = w.sym("_s") if "{s}" in template else None
    w.emit_block(template.format(a=a, b=b, s=s, out=out).split("\n"))


def emit_tnorm(w: Writer, kind: TNorm, a: str, b: str, out: str) -> None:
    _emit_norm(w, TNORM_TEMPLATES[kind], a, b, out)


def emit_snorm(w: Writer, kind: SNorm, a: str, b: str, out: str) -> None:
    _emit_norm(w, SNORM_TEMPLATES[kind], a, b, out)


def emit_prop(w: Writer, prop, settings, names, upper: bool = False) -> str:
    """Statements computing a proposition's truth degree; returns the name
    holding the result.  ``names`` maps each ``(variable, term)`` to the
    ``(lower, upper)`` locals holding its fuzzified degree (a type-1 degree
    is its own lower and upper bound).  ``upper`` selects the bound
    computed; ``Not`` flips it, since the lower bound of ``not p`` is
    ``1 - upper(p)``."""
    if isinstance(prop, Relation):
        return names[prop.variable, prop.term][upper]
    if isinstance(prop, Not):
        inner = emit_prop(w, prop.operand, settings, names, not upper)
        out = w.sym("_n")
        w.emit(f"{out} = 1.0 - {inner}")
        return out
    if isinstance(prop, And):
        a = emit_prop(w, prop.left, settings, names, upper)
        b = emit_prop(w, prop.right, settings, names, upper)
        out = w.sym("_a")
        emit_tnorm(w, settings.conjunction, a, b, out)
        return out
    if isinstance(prop, Or):
        a = emit_prop(w, prop.left, settings, names, upper)
        b = emit_prop(w, prop.right, settings, names, upper)
        out = w.sym("_o")
        emit_snorm(w, settings.disjunction, a, b, out)
        return out
    raise EvaluationError(f"cannot emit code for proposition {prop!r}")


def emit_degrees(w: Writer, fis, relations, args: dict, inline_mfs: bool = True) -> dict:
    """The membership degree of every ``(variable, term)`` in ``relations``
    (lower and upper apart under interval type-2), as ``emit_prop``'s
    ``names``.  ``args`` maps input names to the locals holding their values;
    ``inline_mfs=False`` calls one nested helper per distinct function."""
    it2 = fis.kind is SystemKind.MAMDANI_IT2
    mfs = {}
    for var, term in relations:
        mf = fis.inputs[var].terms[term]
        mfs[var, term] = (mf.lower, mf.upper) if it2 else (mf,)
    helpers: dict = {}
    if not inline_mfs:
        for mf in dict.fromkeys(mf for parts in mfs.values() for mf in parts):
            helpers[mf] = f"_mf{len(helpers)}"
            emit_mf_def(w, mf, helpers[mf])
    names = {}
    for j, ((var, term), parts) in enumerate(mfs.items()):
        outs = (f"_m{j}", f"_u{j}")[:len(parts)]
        w.comment(f"{var} is {term}")
        for mf, out in zip(parts, outs):
            if inline_mfs:
                emit_mf(w, mf, args[var], out)
            else:
                w.emit(f"{out} = {helpers[mf]}({args[var]})")
        names[var, term] = (outs[0], outs[-1])
    return names


def emit_antecedents(w: Writer, fis, relations, args: dict,
                     inline_mfs: bool = True) -> list[str]:
    """The antecedent prologue: ``emit_degrees``, then one expression per
    rule for its truth degree times its weight (``(lower, upper)`` for IT2)."""
    it2 = fis.kind is SystemKind.MAMDANI_IT2
    names = emit_degrees(w, fis, relations, args, inline_mfs)
    acts = []
    w.comment("rule activations")
    for rule in fis.rules:
        exprs = []
        for upper in (False, True) if it2 else (False,):
            expr = emit_prop(w, rule.antecedent, fis.settings, names, upper)
            if rule.weight != 1.0:
                name = w.sym("_r")
                w.emit(f"{name} = {lit(rule.weight)} * {expr}")
                expr = name
            exprs.append(expr)
        acts.append(exprs[0] if len(exprs) == 1 else f"({', '.join(exprs)})")
    return acts


def implicate_expr(kind: Implication, act: str, curve: str) -> str:
    # Mirrors norms.implicate: np.minimum(curve, act) / act * curve.
    return f"{curve} if {curve} < {act} else {act}" if kind is Implication.MIN \
        else f"{act} * {curve}"


def consequent_expr(value, params: dict[str, str]) -> str:
    if isinstance(value, SugenoConstant):
        return lit(value.value)
    parts = [f"{lit(c)} * {params[n]}" for n, c in value.coeffs]
    parts.append(lit(value.offset))
    return "(" + " + ".join(parts) + ")"


def emit_outputs(w: Writer, fis, lowering, acts, params: dict, zeros) -> tuple:
    """The type-1 output stage: each output's crisp value into a local, from
    the rule activation expressions ``acts``; ``params`` holds the input
    locals linear Sugeno consequents read, and ``zeros`` each output's value
    when it fired no rule.  Returns the locals and the widths of the run
    helpers (``emit_run_helper``) the code calls, which the caller defines."""
    results, run_widths = [], set()
    for o, ((out_name, var), zero) in enumerate(zip(fis.outputs.items(), zeros)):
        results.append(f"_out{o}")
        cons = [(acts[i], row) for i, row in lowering.by_output[o]]
        if fis.kind is SystemKind.SUGENO:
            emit_sugeno_output(w, out_name, var, o, cons, params, zero)
        else:
            emit_mamdani_output(w, fis.settings, lowering, out_name, var, o, cons,
                                run_widths, zero)
    return results, sorted(run_widths)


def emit_sugeno_output(w, out_name, var, o, cons, params, zero) -> None:
    # cons: (activation expression, term row) per consequent, in rule order.
    w.comment(f"output {out_name}")
    w.emit(f"_num{o} = 0.0")
    w.emit(f"_den{o} = 0.0")
    terms = tuple(var.terms.values())
    for act, row in cons:
        w.emit(f"_num{o} = _num{o} + {act} * {consequent_expr(terms[row], params)}")
        w.emit(f"_den{o} = _den{o} + {act}")
    w.emit(f"_out{o} = _num{o} / _den{o} if _den{o} > 0.0 else {zero}")


def emit_mamdani_output(w, settings, lowering, out_name, var, o, cons, run_widths,
                        zero) -> None:
    """Aggregate and defuzzify one Mamdani output into ``_out{o}``: in one
    pass over grid runs under max aggregation with the centroid
    (``emit_run_centroid``), else by filling a list of aggregated degrees
    over each fired term's support and defuzzifying it (``_DEFUZZIFY``).
    ``cons`` pairs each consequent's activation expression with its term
    row, in rule order; a curve without mass gives ``zero``."""
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
        w.comment(f"output {out_name}: centroid over {resolution} grid points, "
                  f"one helper call per run of points the same terms cover")
    else:
        w.comment(f"output {out_name}: grid of {resolution} points with "
                  f"pre-sampled term curves (trimmed to their nonzero support)")
        xs = w.bind(f"_xs{o}", tuple(lowering.grids[o].tolist()))
        col_names, col_starts = {}, {}
        for k, t in enumerate(terms):
            col = lowering.curves[0, o, t].tolist()
            live = [j for j, c in enumerate(col) if c != 0.0]
            if not live:
                col_names[t] = None  # curve is identically zero on the grid
                continue
            col_names[t] = w.bind(f"_col{o}_{k}", tuple(col[live[0]:live[-1] + 1]))
            col_starts[t] = live[0]

    if grouped:
        strengths = {t: f"_s{o}_{k}" for k, t in enumerate(terms)}
        names = list(var.terms)
        for t in terms:
            note = "" if w.prefix is None else f"  # strength of {names[t]}"
            w.emit(f"{strengths[t]} = 0.0{note}")
        for act, t in cons:
            w.emit_block([f"if {act} > {strengths[t]}:", f"    {strengths[t]} = {act}"])

    if fused:
        emit_run_centroid(w, settings.implication, lowering, o,
                          [(strengths[t], t) for t in terms], run_widths)
        w.emit(f"_out{o} = _num{o} / _den{o} if _den{o} > 0.0 else {zero}")
        return

    # Zero-strength terms leave the curve untouched (implication yields 0,
    # aggregation with 0 is the identity), so they are skipped outright.
    w.emit(f"_mus{o} = [0.0] * {resolution}")
    for act, t in [(strengths[t], t) for t in terms] if grouped else cons:
        if col_names[t] is None:
            continue
        offset = f", {col_starts[t]}" if col_starts[t] else ""
        w.emit_block([f"if {act} > 0.0:", f"    for _j, _c in enumerate({col_names[t]}{offset}):",
                      f"        _v = {implicate_expr(settings.implication, act, '_c')}"])
        w.level += 2
        if grouped:
            w.emit_block([f"if _v > _mus{o}[_j]:", f"    _mus{o}[_j] = _v"])
        else:
            w.emit(f"_mu = _mus{o}[_j]")
            emit_snorm(w, settings.aggregation, "_mu", "_v", "_mu")
            w.emit(f"_mus{o}[_j] = _mu")
        w.level -= 2
    w.emit_block(_DEFUZZIFY[settings.defuzzifier].format(o=o, xs=xs, zero=zero).split("\n"))


_MAXIMA = """_top{o} = 0.0
for _v in _mus{o}:
    if _v > _top{o}:
        _top{o} = _v
if _top{o} > 0.0:
"""
_NO_MASS = """
else:
    _out{o} = {zero}"""
# Each defuzzifier over the aggregated degrees ``_mus{o}`` on the grid
# ``{xs}``, into ``_out{o}``; ``{zero}`` where the curve has no mass.
_DEFUZZIFY = {
    Defuzzifier.CENTROID: """_num{o} = 0.0
_den{o} = 0.0
for _x, _v in zip({xs}, _mus{o}):
    _den{o} = _den{o} + _v
    _num{o} = _num{o} + _x * _v
_out{o} = _num{o} / _den{o} if _den{o} > 0.0 else {zero}""",
    Defuzzifier.BISECTOR: """_tot{o} = 0.0
for _v in _mus{o}:
    _tot{o} = _tot{o} + _v
if _tot{o} > 0.0:
    _half = 0.5 * _tot{o}
    _acc = 0.0
    for _x, _v in zip({xs}, _mus{o}):
        _acc = _acc + _v
        if _acc >= _half:
            _out{o} = _x
            break""" + _NO_MASS,
    Defuzzifier.FIRST_OF_MAXIMA: _MAXIMA + """    for _x, _v in zip({xs}, _mus{o}):
        if _v == _top{o}:
            _out{o} = _x
            break""" + _NO_MASS,
    Defuzzifier.LAST_OF_MAXIMA: _MAXIMA + """    for _x, _v in zip({xs}, _mus{o}):
        if _v == _top{o}:
            _out{o} = _x""" + _NO_MASS,
    Defuzzifier.MEAN_OF_MAXIMA: _MAXIMA + """    _sum = 0.0
    _cnt = 0
    for _x, _v in zip({xs}, _mus{o}):
        if _v == _top{o}:
            _sum = _sum + _x
            _cnt += 1
    _out{o} = _sum / _cnt""" + _NO_MASS,
}


def grid_runs(lowering, o: int, rows) -> list:
    """Maximal runs of output ``o``'s grid where the same term rows of
    ``rows`` are positive, those covered by any: per run, the positions in
    ``rows`` of its terms and its ``(x, column values...)`` points.  Split
    once per lowering with numpy and kept in ``lowering.runs``."""
    key = (o, tuple(rows))
    runs = lowering.runs.get(key)
    if runs is None:
        cols = lowering.curves[0, o, list(rows)]
        positive = cols > 0.0
        starts = [0, *(np.flatnonzero((positive[:, 1:] != positive[:, :-1]).any(axis=0))
                       + 1).tolist()]
        xs, cols = lowering.grids[o].tolist(), cols.tolist()
        runs = []
        for lo, hi, cover in zip(starts, starts[1:] + [len(xs)], positive[:, starts].T.tolist()):
            run = tuple(k for k, p in enumerate(cover) if p)
            if run:
                runs.append((run, tuple(zip(xs[lo:hi], *(cols[k][lo:hi] for k in run)))))
        lowering.runs[key] = runs
    return runs


def emit_run_centroid(w, implication, lowering, o, strengths, run_widths) -> None:
    """Max-aggregate and sum the centroid of output ``o`` in one pass.

    ``strengths`` pairs each reached term's strength local with its row, in
    declaration order.  Each of the ``grid_runs``, entered only when one of
    its terms fired, is one call to the helper for its width
    (``emit_run_helper``; the width goes into ``run_widths``) over its
    points, or straight-line code for a single point.  Skipped points would
    add aggregated degree 0.0, and both sums start at 0.0, so skipping them
    leaves the left-to-right sums bit for bit unchanged.
    """
    w.emit(f"_num{o} = 0.0")
    w.emit(f"_den{o} = 0.0")
    for n, (run, pts) in enumerate(grid_runs(lowering, o, [t for _, t in strengths])):
        acts = [strengths[k][0] for k in run]
        w.emit(f"if {' or '.join(acts)}:")  # strengths are never negative or NaN
        w.level += 1
        if len(pts) > 1:
            run_widths.add(len(run))
            w.emit(f"_den{o}, _num{o} = _run{len(run)}({w.bind(f'_p{o}_{n}', pts)}, "
                   f"{', '.join(acts)}, _den{o}, _num{o})")
        else:
            (x, *cols), = pts
            for i, c in enumerate(cols):
                w.emit(f"{'_w' if i else '_v'} = {implicate_expr(implication, acts[i], lit(c))}")
                if i:
                    w.emit("_v = _w if _w > _v else _v")
            w.emit(f"_den{o} += _v")
            w.emit(f"_num{o} += {lit(x)} * _v")
        w.level -= 1


def emit_readout(w, first: int, second: int) -> None:
    """``def _readout(_acts, _g)``: the two-group readout of ``_g`` gray levels
    over ``first`` then ``second`` activations.  A group's maximum starts from
    its first member and takes a later one only if greater, as ``max`` does
    (a NaN first member wins, a later one never; ties keep the first)."""
    acts = [f"_a{i}" for i in range(first + second)]
    lines = ["def _readout(_acts, _g):", f"    {', '.join(acts)}, = _acts"]
    for top, group in (("_l1", acts[:first]), ("_l2", acts[first:])):
        lines.append(f"    {top} = {group[0]}")
        for a in group[1:]:
            lines += [f"    if {a} > {top}:", f"        {top} = {a}"]
    w.emit_block(lines + ["    _t = 1.0 - _l1 - _l2", "    _l0 = _t if _t > 0.0 else 0.0",
                          "    return (_g - 1) * (_l1 - _l2) / (_l1 + _l2 + _l0)"])


def emit_run_helper(w, implication, k) -> None:
    """Nested helper ``_run{k}(points, s_0, ..., s_{k-1}, den, num)`` that adds
    the implicated, max-combined degrees of a run covered by ``k`` terms to
    the centroid sums and returns ``(den, num)``.

    A run of two terms often sees only one of them fired; ``_run2`` then
    walks a loop that implicates that term's column alone.  The other term
    implicates to 0.0 (under MIN and PROD alike) and ``max(v, 0.0)`` is ``v``
    for ``v >= 0``, so the sums get the same bits the general loop would add.
    """
    ss = [f"_s{i}" for i in range(k)]

    def loop(terms, indent):
        body = [f"for _x, {', '.join(f'_c{i}' for i in range(k))} in _pts:"]
        for n, i in enumerate(terms):
            shaped = implicate_expr(implication, ss[i], f"_c{i}")
            body.append(f"    {'_w' if n else '_v'} = {shaped}")
            if n:
                body.append("    _v = _w if _w > _v else _v")
        return [indent + line for line in body + ["    _den += _v", "    _num += _x * _v"]]

    lines = [f"def _run{k}(_pts, {', '.join(ss)}, _den, _num):"]
    if k == 2:
        lines += ["    if not _s1:", *loop([0], " " * 8), "    elif not _s0:",
                  *loop([1], " " * 8), "    else:", *loop(range(2), " " * 8)]
    else:
        lines += loop(range(k), "    ")
    w.emit_block(lines + ["    return _den, _num"])
