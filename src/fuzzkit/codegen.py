"""Compile a fuzzy system into standalone, dependency-free source text.

The emitted text is one plain function taking one float per input variable
in declaration order and returning one float per output.  Above it stand the
imports its body calls (``bisect_right``, ``exp``, ``log``) and the sampled
tables it reads, each a module-level name prefixed with the function's name
and spelled as one string of float reprs: compile time follows the token
count, and 600 floats compile in 1.7 ms as a tuple literal, 0.08 ms as one
string.  The body is the engine's own type-1 inference written out
(``_emit.emit_antecedents``, then ``_emit.emit_outputs``); only the spelling
differs: comments stay, run helpers are nested, and an output that fires no
rule returns its zero-fire value where the engine's stage returns ``None``.
So generated code reproduces ``infer`` bit for bit.
Sums are plain left folds in grid order, never ``sum`` or ``math.fsum``,
which round differently; the numpy backend (``engine._aggregate``,
``engine._defuzzify``) accumulates in the same order.
"""

from __future__ import annotations

import types

from . import _emit
from .engine import _lower, _zero_fire_value
from .errors import CodegenError
from .model import FuzzySystem, SystemKind


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
    taken = {*_emit.IMPORTS, "abs", "zip", "enumerate"}
    fname = _emit.sanitize(function_name or fis.name, set(taken), fallback="f")
    taken.add(fname)
    params = {name: _emit.sanitize(name, taken) for name in fis.inputs}

    lowering = _lower(fis)
    w = _emit.Writer(prefix=f"_{fname}")
    w.emit(f"def {fname}({', '.join(params.values())}):")
    w.level += 1
    ins = ", ".join(fis.inputs)
    outs = ", ".join(fis.outputs)
    if antecedents_only:
        w.emit(f'"""Rule activation vector of {fis.name!r} for ({ins})."""')
    else:
        w.emit(f'"""Map ({ins}) to ({outs}) by fuzzy inference ({fis.name!r})."""')
    helpers_at = len(w.lines)
    acts = _emit.emit_antecedents(w, fis, lowering.relations, params, inline_mfs)

    if antecedents_only:
        w.emit(f"return ({', '.join(acts)}{',' if len(acts) == 1 else ''})")
    else:
        zeros = [_emit.lit(_zero_fire_value(fis, name, var))
                 for name, var in fis.outputs.items()]
        results, run_widths = _emit.emit_outputs(w, fis, lowering, acts, params, zeros)
        hw = _emit.Writer()
        hw.level = 1
        for k in run_widths:
            _emit.emit_run_helper(hw, fis.settings.implication, k)
        w.lines[helpers_at:helpers_at] = hw.lines
        w.emit(f"return ({', '.join(results)})" if len(results) > 1
               else f"return {results[0]}")
    imports = [f"from {m} import {', '.join(n for n in sorted(w.uses) if _emit.IMPORTS[n] == m)}"
               for m in sorted({_emit.IMPORTS[n] for n in w.uses})]
    tables = [line for name, table in w.consts.items() for line in _emit.table_lines(name, table)]
    w.lines[:0] = [line for block in (imports, tables) if block for line in (*block, "", "")]
    return w.text()


def load(source: str):
    """Execute generated source and return the function it defines.

    The function is popped from its namespace, not left bound in its own
    ``__globals__``: generated code never refers to its own name, and the
    binding would be a reference cycle that keeps a dropped function alive
    until the cycle collector runs."""
    ns: dict = {}
    exec(compile(source, "<generated>", "exec"), ns)
    names = [k for k, v in ns.items() if isinstance(v, types.FunctionType)]
    if len(names) != 1:
        raise CodegenError(f"expected exactly one function, found {len(names)}")
    return ns.pop(names[0])
