"""Standalone source generation: equivalence with the interpreter and hygiene
of the emitted text."""

import ast
import dataclasses
import keyword
import math
import random
import re
import sys

import pytest

import helpers
from fuzzkit import (And, Defuzzifier, Domain, EngineSettings, FuzzySystem,
                     Gaussian, Implication, ModelError, Or, PiecewiseLinear, Relation, Rule,
                     SNorm, SystemKind, Trapezoidal, Triangular, Variable, corpus)
from fuzzkit import _emit
from fuzzkit.codegen import CodegenError, generate, load
from fuzzkit.engine import _lower, fire_rules, infer
from fuzzkit.interop import parse_fcl, parse_fis


@pytest.fixture(scope="module")
def tipper():
    return corpus.load_system("tipper")


# ---------------------------------------------------------------------------
# Numeric equivalence

def test_tipper_matches_interpreter(tipper):
    fn = load(generate(tipper))
    rng = random.Random(111)
    worst = 0.0
    for _ in range(1000):
        s, f = rng.uniform(0, 10), rng.uniform(0, 10)
        got = fn(s, f)
        want = infer(tipper, {"service": s, "food": f}).crisp["tip"]
        worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def test_corpus_cases_match_interpreter():
    rng = random.Random(112)
    for case in ("denoise", "robot"):
        fis = corpus.load_system(case)
        fn = load(generate(fis))
        names = list(fis.inputs)
        for _ in range(200):
            inputs = helpers.random_inputs(rng, fis)
            got = fn(*(inputs[n] for n in names))
            res = infer(fis, inputs)
            want = tuple(res.crisp[o] for o in fis.outputs)
            if len(fis.outputs) == 1:
                want = want[0]
            if isinstance(got, tuple):
                assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))
            else:
                assert abs(got - want) <= 1e-12


def test_random_systems_match_interpreter():
    rng = random.Random(113)
    for i in range(20):
        fis = helpers.random_t1_system(rng, i)
        fn = load(generate(fis))
        names = list(fis.inputs)
        for _ in range(25):
            inputs = helpers.random_inputs(rng, fis)
            got = fn(*(inputs[n] for n in names))
            res = infer(fis, inputs)
            if len(fis.outputs) == 1:
                got = (got,)
            for g, name in zip(got, fis.outputs):
                assert abs(g - res.crisp[name]) <= 1e-12, (fis.name, inputs)


def test_antecedents_only_matches_fire_rules(tipper):
    fn = load(generate(tipper, antecedents_only=True))
    rng = random.Random(114)
    for _ in range(100):
        s, f = rng.uniform(0, 10), rng.uniform(0, 10)
        got = fn(s, f)
        want = tuple(fire_rules(tipper, {"service": s, "food": f}))
        assert got == want


def test_helper_variant_matches_inline(tipper):
    inline = load(generate(tipper))
    helper = load(generate(tipper, inline_mfs=False))
    rng = random.Random(115)
    for _ in range(200):
        s, f = rng.uniform(0, 10), rng.uniform(0, 10)
        assert inline(s, f) == helper(s, f)


def _run_pass_system(rng, implication):
    """Two-output Mamdani system under max aggregation and the centroid whose
    output terms give the one-pass run loops every shape: four overlapping
    Gaussians on ``y`` (runs covered by three and more terms); on ``z`` a
    polyline with interior zeros (a support with gaps), a triangle between
    two grid points (identically zero on the grid), a trapezoid and a
    one-segment polyline at the domain's edge."""
    a = Variable("a", Domain(0.0, 10.0),
                 {f"t{k}": Triangular(2.5 * k - 3.0, 2.5 * k, 2.5 * k + 3.0)
                  for k in range(5)})
    b = Variable("b", Domain(-1.0, 1.0), {"neg": Triangular(-1.5, -1.0, -0.2),
                                          "pos": Triangular(0.2, 1.0, 1.5)})
    y = Variable("y", Domain(0.0, 10.0),
                 {f"g{k}": Gaussian(rng.uniform(0.0, 10.0), rng.uniform(1.5, 4.0))
                  for k in range(4)})
    z = Variable("z", Domain(-5.0, 5.0), {
        "gappy": PiecewiseLinear(((-5.0, 0.0), (-4.0, 1.0), (-3.0, 0.0), (-1.0, 0.0),
                                  (0.0, rng.uniform(0.3, 1.0)), (1.0, 0.0), (2.0, 0.0),
                                  (3.0, rng.uniform(0.3, 1.0)), (4.0, 0.0))),
        "sliver": Triangular(0.01, 0.02, 0.03),
        "plateau": Trapezoidal(-2.0, -1.0, 2.0, rng.uniform(2.5, 4.5)),
        "edge": PiecewiseLinear(((-5.0, 1.0), (-4.5, 0.0))),
    })

    def weight():
        return rng.choice((1.0, rng.uniform(0.2, 1.0)))

    rules = [Rule(Relation("a", f"t{k}"), (Relation("y", f"g{k % 4}"),), weight())
             for k in range(5)]
    rules += [Rule(Relation("b", "neg"), (Relation("z", "gappy"),), weight()),
              Rule(Relation("b", "pos"), (Relation("z", "sliver"),), weight()),
              Rule(And(Relation("a", "t1"), Relation("b", "pos")),
                   (Relation("z", "plateau"), Relation("y", "g2")), weight()),
              Rule(Or(Relation("a", "t3"), Relation("b", "neg")),
                   (Relation("z", "edge"),), weight())]
    rng.shuffle(rules)
    settings = EngineSettings(implication=implication, aggregation=SNorm.MAX,
                              defuzzifier=Defuzzifier.CENTROID)
    return FuzzySystem("runs", SystemKind.MAMDANI, {"a": a, "b": b}, {"y": y, "z": z},
                       tuple(rules), settings)


def _crowded_system(rng, implication):
    """One output of fifteen Gaussians, positive at every grid point, so one
    run is covered by every term and its loop header outgrows a line; the
    grid starts at 0.1 + 0.2, whose repr is long."""
    a = Variable("a", Domain(0.0, 10.0),
                 {f"t{k}": Triangular(0.7 * k - 1.0, 0.7 * k, 0.7 * k + 1.0)
                  for k in range(15)})
    y = Variable("y", Domain(0.1 + 0.2, 10.0),
                 {f"g{k}": Gaussian(rng.uniform(0.0, 10.0), rng.uniform(1.0, 3.0))
                  for k in range(15)})
    rules = tuple(Rule(Relation("a", f"t{k}"), (Relation("y", f"g{k}"),),
                       rng.uniform(0.2, 1.0)) for k in range(15))
    settings = EngineSettings(implication=implication, aggregation=SNorm.MAX,
                              defuzzifier=Defuzzifier.CENTROID)
    return FuzzySystem("crowded", SystemKind.MAMDANI, {"a": a}, {"y": y}, rules,
                       settings)


def _run_helper_loops(src):
    """Line numbers of each ``_run{k}`` helper's loop headers in ``src``: for
    ``_run2`` one loop per term fired alone, then the general loop; other
    widths have the general loop only."""
    loops, name = {}, None
    for n, line in enumerate(src.splitlines(), 1):
        m = re.match(r"    def (_run\d+)\(", line)
        if m:
            name = m.group(1)
            loops[name] = []
        elif not line.startswith("        "):
            name = None
        elif name and line.lstrip().startswith("for _x,"):
            loops[name].append(n)
    return loops


def _traced_lines(fn, *args):
    """Call ``fn(*args)``; return its result and the lines run inside the
    ``_run`` helpers it calls."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_name.startswith("_run") else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        got = fn(*args)
    finally:
        sys.settrace(before)
    return got, seen


@pytest.mark.parametrize("implication", list(Implication))
def test_run_pass_matches_interpreter_bitwise(implication):
    # The one-pass loops of max aggregation with the centroid equal infer and
    # the plain-float reference with ==, inputs included where nothing fires.
    # The inputs reach runs of two terms where exactly one of them fired,
    # which _run2 walks in that term's own loop, and runs where several
    # terms fired, which take the general loop.
    rng = random.Random(119)
    systems = [_run_pass_system(rng, implication) for _ in range(4)]
    z = systems[0].outputs["z"]
    assert not z.terms["sliver"].sample(z.domain.grid(101)).any()
    for case in ("robot", "tipper"):
        base = corpus.load_system(case)
        settings = dataclasses.replace(base.settings, implication=implication,
                                       aggregation=SNorm.MAX,
                                       defuzzifier=Defuzzifier.CENTROID)
        systems.append(FuzzySystem(base.name, base.kind, base.inputs, base.outputs,
                                   base.rules, settings))
    # some run is covered by three or more terms
    assert re.search(r"= _run[3-9]\(", generate(systems[0]))
    systems.append(_crowded_system(rng, implication))
    assert "_run15(" in generate(systems[-1])  # one run is covered by all fifteen
    degenerate = 0
    for fis in systems:
        src = generate(fis)
        fn = load(src)
        loops = _run_helper_loops(src)
        assert loops and all(len(v) == (3 if k == "_run2" else 1)
                             for k, v in loops.items())
        taken = set()
        names = list(fis.inputs)
        for _ in range(300):
            inputs = helpers.random_inputs(rng, fis, pad=0.5)
            got, seen = _traced_lines(fn, *(inputs[n] for n in names))
            taken |= seen
            if len(fis.outputs) == 1:
                got = (got,)
            res = infer(fis, inputs)
            _, crisp, degen = helpers.mamdani_reference(fis, res.firing)
            assert got == tuple(res.crisp.values()) == tuple(crisp.values()), \
                (fis.name, inputs)
            degenerate += len(degen)
        for name, heads in loops.items():
            assert heads[-1] in taken, (fis.name, name)  # the general loop
            if len(heads) > 1:  # and some term's own loop
                assert taken & set(heads[:-1]), (fis.name, name)
        if fis.name in ("robot", "crowded"):
            assert set(loops) == ({"_run2"} if fis.name == "robot" else {"_run15"})
            if fis.name == "robot":
                assert set(loops["_run2"]) <= taken  # every branch of _run2
    assert degenerate > 0


def _polyline_system(polylines):
    """One input ``x`` whose terms are ``polylines``; rule k fires output
    ``y`` with exactly the degree of term k (weight 1, a bare relation)."""
    x = Variable("x", Domain(-10.0, 10.0),
                 {f"p{k}": PiecewiseLinear(pts) for k, pts in enumerate(polylines)})
    y = Variable("y", Domain(0.0, 1.0), {"u": Triangular(0.0, 0.5, 1.0)})
    rules = tuple(Rule(Relation("x", t), (Relation("y", "u"),)) for t in x.terms)
    return FuzzySystem("poly", SystemKind.MAMDANI, {"x": x}, {"y": y}, rules)


def test_piecewise_linear_firing_equals_call():
    # Compiled firing, generated antecedents (inline and helper forms) and
    # direct calls equal helpers.polyline with ==: one, two and many nodes, flat
    # and near-vertical segments, inputs on, beside, between and outside the
    # nodes.  NaN still gives NaN everywhere.  Polylines of up to
    # _emit.CHAIN_NODES nodes are a branch chain, longer ones bisect a table:
    # 8 and 9 nodes sit on either side of the boundary, tipper.fcl's terms
    # have 41, and the random ones 3 to 12.
    rng = random.Random(120)
    up = math.nextafter(1.0, 2.0)
    polylines = [((2.0, 0.3),), ((-1.0, 0.0), (3.0, 1.0)), ((-1.0, 1.0), (3.0, 0.25)),
                 ((0.5, 0.0), (1.0, 0.0), (up, 1.0), (4.0, 1.0)),
                 tuple((k - 4.0, k % 2 * 0.75) for k in range(8)),
                 tuple((k - 4.0, k % 3 * 0.5) for k in range(9))]
    tipper = parse_fcl(corpus.load_text("tipper.fcl"))[0]
    polylines.append(tipper.inputs["service"].terms["good"].points)
    for _ in range(30):
        xs = sorted(rng.sample(range(-900, 900), rng.randint(3, 12)))
        ys, prev = [], rng.random()
        for _ in xs:
            prev = rng.random() if rng.random() < 0.5 else rng.choice((0.0, 1.0, prev))
            ys.append(prev)
        polylines.append(tuple((x / 97.0, y) for x, y in zip(xs, ys)))
    with pytest.raises(ModelError, match="strictly increasing"):
        PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (1.0, 0.5)))  # repeated x

    fis = _polyline_system(polylines)
    mfs = list(fis.inputs["x"].terms.values())
    probes = [-math.inf, -10.0, 10.0, math.inf, 0.0, -0.0]
    for pts in polylines:
        nodes = [x for x, _ in pts]
        for x in nodes:
            probes += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        probes += [(x0 + x1) / 2 for x0, x1 in zip(nodes, nodes[1:])]
        probes += [nodes[0] - 1.0, nodes[-1] + 1.0]
    probes += [rng.uniform(-10.0, 10.0) for _ in range(200)]
    long = sum(len(pts) > _emit.CHAIN_NODES for pts in polylines)
    assert len(polylines[-1 - 30]) == 41 and 0 < long < len(polylines)
    sources = [generate(fis, antecedents_only=True, inline_mfs=f) for f in (True, False)]
    for src in sources:
        assert src.count("[bisect_right(") == long
    inline, helper = map(load, sources)
    for v in probes:
        want = tuple(helpers.t1_degree(mf, v) for mf in mfs)
        for got in (tuple(fire_rules(fis, {"x": v})), inline(v), helper(v),
                    tuple(mf(v) for mf in mfs)):
            assert got == want, (v, got, want)
    for got in (fire_rules(fis, {"x": math.nan}), inline(math.nan), helper(math.nan),
                tuple(mf(math.nan) for mf in mfs)):
        assert all(math.isnan(g) for g in got)


# ---------------------------------------------------------------------------
# Emitted text

def _one_rule_system():
    a = Variable("a", Domain(0, 1), {"on": Triangular(0, 0.5, 1)})
    y = Variable("y", Domain(0, 10), {"mid": Triangular(0, 5, 10)})
    return FuzzySystem("one", SystemKind.MAMDANI, {"a": a}, {"y": y},
                       (Rule(Relation("a", "on"), (Relation("y", "mid"),)),))


def test_single_rule_source_is_short_and_standalone():
    src = generate(_one_rule_system())
    lines = src.splitlines()
    assert len(lines) < 120
    # Sums are left folds: builtin sum compensates from Python 3.12 on and
    # math.fsum rounds once, so either would break bitwise parity.
    # The run helpers are nested and the tables are plain assignments, so the
    # text stays one top-level def.  No library references: the only imports
    # allowed are from math, and bisect_right for polylines of more than
    # _emit.CHAIN_NODES nodes (tipper.fcl's).
    tipper_fcl = parse_fcl(corpus.load_text("tipper.fcl"))[0]
    for fis in (_one_rule_system(), tipper_fcl,
                *(corpus.load_system(c) for c in ("tipper", "robot"))):
        text = generate(fis)
        for token in ("fuzzkit", "numpy", "np.", "import sys", "engine"):
            assert token not in text, (fis.name, token)
        imports = [l for l in text.splitlines() if l.startswith(("import", "from"))]
        assert all(re.fullmatch(r"from math import .+|from bisect import bisect_right", l)
                   for l in imports), fis.name
        assert not re.search(r"(?<!\w)f?sum\(", text), fis.name
        defs = [n for n in ast.parse(text).body if isinstance(n, ast.FunctionDef)]
        assert len(defs) == 1, fis.name
    assert "from bisect import bisect_right" in generate(tipper_fcl)
    assert "    def _run2(" in generate(corpus.load_system("robot"))


def _table_text(src):
    """The module-level lines of generated ``src`` above its function, less
    its imports: the table assignments."""
    head = src[:re.search(r"^def ", src, re.M).start()]
    return "\n".join(l for l in head.splitlines() if not l.startswith("from "))


def _flat(table):
    return [v for row in table for v in (row if isinstance(row, tuple) else (row,))]


def test_tables_decode_to_the_lowering_values_exactly(monkeypatch):
    # Executed on their own, the table lines above the function (each within
    # WIDTH columns) rebuild every tuple the writer bound, value for value to
    # the bit (.hex() tells -0.0 from 0.0), in the same shape.  Those tuples
    # are the lowering's: run points from its grid_runs memo, grids, trimmed
    # term curves, and polyline nodes and segments.  Inline and helper forms,
    # on the corpus and 100 random systems.
    bound = {}
    real_bind = _emit.Writer.bind

    def recording(self, name, table):
        name = real_bind(self, name, table)
        if self.prefix is not None:
            bound[name] = table
        return name

    monkeypatch.setattr(_emit.Writer, "bind", recording)
    rng = random.Random(122)
    systems = [corpus.load_system(c) for c in ("tipper", "robot", "denoise")]
    systems += [parse_fcl(corpus.load_text("tipper.fcl"))[0],
                parse_fis(corpus.load_text("tipper.fis"))[0]]
    systems += [helpers.random_t1_system(rng, i) for i in range(100)]
    kinds = set()
    for fis in systems:
        lowering = _lower(fis)
        for inline in (True, False):
            bound.clear()
            src = generate(fis, inline_mfs=inline)
            prefix = "_" + re.search(r"^def (\w+)\(", src, re.M).group(1)
            assert all(len(line) <= _emit.WIDTH for line in _table_text(src).splitlines())
            ns: dict = {}
            exec(_table_text(src), ns)
            del ns["__builtins__"]
            assert ns.keys() == bound.keys(), fis.name
            runs = {tuple(v.hex() for v in _flat(pts))
                    for found in lowering.runs.values() for _, pts in found}
            grids = {tuple(v.hex() for v in g) for g in lowering.grids.tolist()} \
                if lowering.grids is not None else set()
            for name, table in bound.items():
                got = ns[name]
                assert type(got) is tuple and len(got) == len(table), name
                assert [len(r) if isinstance(r, tuple) else 0 for r in got] == \
                       [len(r) if isinstance(r, tuple) else 0 for r in table], name
                hexes = tuple(v.hex() for v in _flat(got))
                assert hexes == tuple(v.hex() for v in _flat(table)), (fis.name, name)
                kind = re.sub(r"\d+", "", name[len(prefix):])
                kinds.add(kind)
                if kind == "_p_":
                    assert hexes in runs, (fis.name, name)
                elif kind == "_xs":
                    assert hexes in grids, (fis.name, name)
    assert kinds == {"_p_", "_xs", "_col_", "_plx", "_pls"}, kinds


def test_math_import_names_exactly_what_the_body_calls():
    # The imports are `from bisect import bisect_right`, exactly when the body
    # bisects a long polyline, then `from math import ...` naming exactly the
    # math functions the body calls.
    rng = random.Random(118)
    seen = set()
    systems = [helpers.random_t1_system(rng, i) for i in range(40)]
    systems.append(parse_fcl(corpus.load_text("tipper.fcl"))[0])
    systems.append(_polyline_system([tuple((k / 2.0, k % 2 * 1.0) for k in range(9)),
                                     ((0.0, 0.0), (1.0, 1.0))]))
    for fis in systems:
        for inline in (True, False):
            lines = generate(fis, inline_mfs=inline).splitlines()
            imports = [l for l in lines if l.startswith(("from ", "import "))]
            body = "\n".join(l for l in lines if l not in imports)
            called = [n for n in ("bisect_right", "exp", "log")
                      if re.search(rf"(?<![\w.]){n}\(", body)]
            want = ["from bisect import bisect_right"] if "bisect_right" in called else []
            math_names = [n for n in called if n != "bisect_right"]
            if math_names:
                want.append(f"from math import {', '.join(math_names)}")
            assert imports == want, (fis.name, inline)
            assert lines[:len(want)] == want
            seen.add(tuple(called))
    assert seen == {(), ("exp",), ("exp", "log"), ("bisect_right",)}


def test_generated_source_compiles_cleanly(tipper):
    src = generate(tipper)
    compile(src, "<check>", "exec")  # no syntax error
    ns: dict = {}
    exec(compile(src, "<check>", "exec"), ns)
    assert math.isfinite(ns["tipper"](3.3, 7.7))


def test_generation_is_deterministic(tipper):
    assert generate(tipper) == generate(tipper)
    rng = random.Random(116)
    fis = helpers.random_t1_system(rng, 4)
    assert generate(fis) == generate(fis)


def test_docstring_names_signature(tipper):
    src = generate(tipper)
    assert '"""Map (service, food) to (tip)' in src


def test_helper_functions_dedupe_identical_shapes():
    a = Variable("a", Domain(0, 10), {"t": Triangular(0, 5, 10)})
    b = Variable("b", Domain(0, 10), {"t": Triangular(0, 5, 10)})
    y = Variable("y", Domain(0, 10), {"u": Triangular(0, 5, 10)})
    fis = FuzzySystem("dup", SystemKind.MAMDANI, {"a": a, "b": b}, {"y": y},
                      (Rule(And(Relation("a", "t"), Relation("b", "t")),
                            (Relation("y", "u"),)),))
    src = generate(fis, inline_mfs=False)
    assert src.count("def _mf") == 1


# ---------------------------------------------------------------------------
# Naming

def test_function_name_override(tipper):
    src = generate(tipper, function_name="my_fn")
    assert "def my_fn(service, food):" in src
    assert load(src)(5.0, 5.0) == load(generate(tipper))(5.0, 5.0)


def test_system_named_after_math_import_is_renamed(tipper):
    shadow = FuzzySystem("exp", tipper.kind, tipper.inputs, tipper.outputs,
                         tipper.rules, tipper.settings)
    src = generate(shadow)
    assert "def exp2(service, food):" in src
    assert load(src)(5.0, 5.0) == load(generate(tipper))(5.0, 5.0)


def test_inputs_named_after_names_the_body_calls_are_renamed():
    # A parameter named zip, enumerate or bisect_right would shadow what the
    # body calls: the non-centroid output loops zip its grid and curves, and a
    # polyline of more than _emit.CHAIN_NODES nodes bisects its nodes.
    names = ("zip", "enumerate", "bisect_right", "abs", "exp")
    terms = {"t": PiecewiseLinear(tuple((k * 1.25, k % 2 * 1.0) for k in range(9)))}
    inputs = {n: Variable(n, Domain(0, 10), terms) for n in names}
    y = Variable("y", Domain(0, 10), {"u": Triangular(0, 5, 10), "v": Gaussian(7.0, 2.0)})
    rules = tuple(Rule(Relation(n, "t"), (Relation("y", "uv"[k % 2]),))
                  for k, n in enumerate(names))
    fis = FuzzySystem("shadow", SystemKind.MAMDANI, inputs, {"y": y}, rules,
                      EngineSettings(defuzzifier=Defuzzifier.BISECTOR))
    src = generate(fis)
    assert "def shadow(zip2, enumerate2, bisect_right2, abs2, exp2):" in src
    fn = load(src)
    rng = random.Random(123)
    for _ in range(50):
        row = {n: rng.uniform(0.0, 10.0) for n in names}
        assert fn(*row.values()) == infer(fis, row).crisp["y"]


def test_hostile_names_are_sanitized(tipper):
    odd = FuzzySystem("2bad name-x", tipper.kind, tipper.inputs, tipper.outputs,
                      tipper.rules, tipper.settings)
    src = generate(odd)
    def_line = [l for l in src.splitlines() if l.startswith("def ")][0]
    name = def_line[4:def_line.index("(")]
    assert name.isidentifier() and not keyword.iskeyword(name)
    load(src)


def test_keyword_variable_names():
    v_in = Variable("lambda", Domain(0, 1), {"t": Triangular(0, 0.5, 1)})
    v_out = Variable("class", Domain(0, 1), {"u": Triangular(0, 0.5, 1)})
    fis = FuzzySystem("kw", SystemKind.MAMDANI,
                      {"lambda": v_in}, {"class": v_out},
                      (Rule(Relation("lambda", "t"), (Relation("class", "u"),)),))
    src = generate(fis)
    assert "def kw(lambda_):" in src
    got = load(src)(0.5)
    want = infer(fis, {"lambda": 0.5}).crisp["class"]
    assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# Refusals

def test_it2_systems_are_refused():
    rng = random.Random(117)
    fis = helpers.random_it2_system(rng)
    with pytest.raises(CodegenError, match="interval type-2"):
        generate(fis)


def test_load_requires_exactly_one_function():
    with pytest.raises(CodegenError, match="found 0"):
        load("x = 1")
    with pytest.raises(CodegenError, match="found 2"):
        load("def a():\n    pass\n\n\ndef b():\n    pass")
