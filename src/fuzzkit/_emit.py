"""Scalar code emission: the one scalar evaluator of rule antecedents.

The engine's compiled rule firing, ``engine.eval_proposition`` and the
standalone code generator all run text written here.  ``emit_antecedents``
writes the antecedent prologue, for type-1 and interval type-2 systems
alike: membership degrees of the used terms (``emit_degrees``), then each
rule's truth degree times its weight.  Norms are formatted from the
statement templates in ``norms``, their only source.  Membership formulas
(``emit_mf``) mirror ``mf``'s ``__call__`` operation for operation, so a
term called directly and a term in emitted code agree bit for bit; changing
one requires changing the other.

Emitted code references only the names ``exp``, ``log`` and ``abs``; callers
provide them (``math.exp``/``math.log``/builtin ``abs``, or a
``from math import ...`` line in standalone text naming what
``Writer.uses`` recorded).
"""

from __future__ import annotations

import keyword

from .errors import EvaluationError
from .mf import (Gaussian, GeneralizedBell, PiecewiseLinear, Sigmoid,
                 Singleton, Trapezoidal, Triangular)
from .model import And, Not, Or, Relation, SystemKind
from .norms import SNORM_TEMPLATES, TNORM_TEMPLATES, SNorm, TNorm


def lit(value: float) -> str:
    """Literal spelling of a float; parenthesized when signed so it can be
    embedded in any expression position."""
    r = repr(float(value))
    return f"({r})" if r.startswith("-") else r


class Writer:
    """Indentation-aware line collector.

    ``uses`` collects the ``math`` names (``exp``, ``log``) that the emitted
    membership formulas call.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.level = 0
        self.uses: set[str] = set()
        self._counter = 0

    def emit(self, text: str = "") -> None:
        self.lines.append(("    " * self.level + text) if text else "")

    def sym(self, prefix: str = "_t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


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


def emit_mf(w: Writer, mf, x: str, out: str) -> None:
    """Statements assigning ``out`` = mf(``x``), mirroring ``mf.__call__``."""
    if isinstance(mf, Triangular):
        a, b, c = lit(mf.a), lit(mf.b), lit(mf.c)
        w.emit(f"if {x} == {b}:")
        w.level += 1
        w.emit(f"{out} = 1.0")
        w.level -= 1
        w.emit(f"elif {x} <= {a} or {x} >= {c}:")
        w.level += 1
        w.emit(f"{out} = 0.0")
        w.level -= 1
        w.emit(f"elif {x} < {b}:")
        w.level += 1
        w.emit(f"{out} = ({x} - {a}) / ({b} - {a})")
        w.level -= 1
        w.emit("else:")
        w.level += 1
        w.emit(f"{out} = ({c} - {x}) / ({c} - {b})")
        w.level -= 1
        return
    if isinstance(mf, Trapezoidal):
        a, b, c, d = lit(mf.a), lit(mf.b), lit(mf.c), lit(mf.d)
        w.emit(f"if {b} <= {x} <= {c}:")
        w.level += 1
        w.emit(f"{out} = 1.0")
        w.level -= 1
        w.emit(f"elif {x} <= {a} or {x} >= {d}:")
        w.level += 1
        w.emit(f"{out} = 0.0")
        w.level -= 1
        w.emit(f"elif {x} < {b}:")
        w.level += 1
        w.emit(f"{out} = ({x} - {a}) / ({b} - {a})")
        w.level -= 1
        w.emit("else:")
        w.level += 1
        w.emit(f"{out} = ({d} - {x}) / ({d} - {c})")
        w.level -= 1
        return
    if isinstance(mf, Gaussian):
        w.uses.add("exp")
        d = w.sym("_d")
        w.emit(f"{d} = {x} - {lit(mf.mu)}")
        w.emit(f"{out} = exp(-({d} * {d}) / "
               f"(2.0 * {lit(mf.sigma)} * {lit(mf.sigma)}))")
        return
    if isinstance(mf, Singleton):
        w.emit(f"{out} = 1.0 if {x} == {lit(mf.c)} else 0.0")
        return
    if isinstance(mf, GeneralizedBell):
        w.uses.update(("exp", "log"))
        t = w.sym("_t")
        z = w.sym("_z")
        w.emit(f"{t} = abs(({x} - {lit(mf.c)}) / {lit(mf.a)})")
        w.emit(f"if {t} == 0.0:")
        w.level += 1
        w.emit(f"{out} = 1.0")
        w.level -= 1
        w.emit("else:")
        w.level += 1
        w.emit(f"{z} = 2.0 * {lit(mf.b)} * log({t})")
        w.emit(f"if {z} >= 709.0:")
        w.level += 1
        w.emit(f"{out} = 0.0")
        w.level -= 1
        w.emit(f"elif {z} <= -709.0:")
        w.level += 1
        w.emit(f"{out} = 1.0")
        w.level -= 1
        w.emit("else:")
        w.level += 1
        w.emit(f"{out} = 1.0 / (1.0 + exp({z}))")
        w.level -= 2
        return
    if isinstance(mf, Sigmoid):
        w.uses.add("exp")
        z = w.sym("_z")
        w.emit(f"{z} = {lit(-mf.a)} * ({x} - {lit(mf.c)})")
        w.emit(f"if {z} >= 709.0:")
        w.level += 1
        w.emit(f"{out} = 0.0")
        w.level -= 1
        w.emit(f"elif {z} <= -709.0:")
        w.level += 1
        w.emit(f"{out} = 1.0")
        w.level -= 1
        w.emit("else:")
        w.level += 1
        w.emit(f"{out} = 1.0 / (1.0 + exp({z}))")
        w.level -= 1
        return
    if isinstance(mf, PiecewiseLinear):
        # One comparison per breakpoint.  Each segment's rise and run are
        # subtracted here, the same IEEE subtractions ``__call__`` makes at
        # run time.  NaN fails every comparison and lands in the last branch,
        # whose result is NaN too.
        xs, ys = mf._xs, mf._ys
        w.emit(f"if {x} <= {lit(xs[0])}:")
        w.level += 1
        w.emit(f"{out} = {lit(ys[0])}")
        w.level -= 1
        w.emit(f"elif {x} >= {lit(xs[-1])}:")
        w.level += 1
        w.emit(f"{out} = {lit(ys[-1])}")
        w.level -= 1
        last = len(xs) - 2
        for i in range(last + 1):
            w.emit("else:" if i == last else f"elif {x} < {lit(xs[i + 1])}:")
            w.level += 1
            w.emit(f"{out} = ({x} - {lit(xs[i])}) * {lit(ys[i + 1] - ys[i])} / "
                   f"{lit(xs[i + 1] - xs[i])} + {lit(ys[i])}")
            w.level -= 1
        if last < 0:  # a single node: only NaN gets here
            w.emit("else:")
            w.level += 1
            w.emit(f"{out} = {x}")
            w.level -= 1
        return
    raise EvaluationError(f"cannot emit code for membership function {mf!r}")


def _emit_norm(w: Writer, template: str, a: str, b: str, out: str) -> None:
    s = w.sym("_s") if "{s}" in template else None
    for line in template.format(a=a, b=b, s=s, out=out).split("\n"):
        w.emit(line)


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
            w.emit(f"def {helpers[mf]}(_x):")
            w.level += 1
            emit_mf(w, mf, "_x", "_y")
            w.emit("return _y")
            w.level -= 1
    names = {}
    for j, ((var, term), parts) in enumerate(mfs.items()):
        outs = (f"_m{j}", f"_u{j}")[:len(parts)]
        w.emit(f"# {var} is {term}")
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
    w.emit("# rule activations")
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
