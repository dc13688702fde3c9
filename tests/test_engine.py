"""Inference pipeline behaviour checked against independent oracles."""

import collections
import dataclasses
import itertools
import json
import math
import random

import numpy as np
import pytest

import helpers
from fuzzkit import (And, Defuzzifier, Domain, EngineSettings, EvaluationError,
                     FuzzySystem, Gaussian, Implication, MissingInputError, Not, Or,
                     Relation, Rule, SNorm, SugenoConstant, SugenoLinear,
                     SystemKind, TNorm, Triangular, Variable, codegen, corpus, engine)
from fuzzkit.engine import (defuzzify, eval_proposition, fire_rules,
                            grouped_max_output, infer, infer_mamdani,
                            infer_sugeno, km_reduce)


@pytest.fixture(scope="module")
def tipper():
    return corpus.load_system("tipper")


# ---------------------------------------------------------------------------
# Firing strengths

def test_tipper_firing_at_zero_matches_hand_gaussians(tipper):
    acts = fire_rules(tipper, {"service": 0.0, "food": 0.0})
    # rule 1: max(poor(0), rancid(0)) = max(1, 1) = 1
    assert acts[0] == 1.0
    # rule 2: good(0) = exp(-25 / 4.5)
    assert acts[1] == pytest.approx(math.exp(-25.0 / 4.5), abs=1e-15)
    assert acts[1] == pytest.approx(0.003866, abs=1e-6)
    # rule 3: max(excellent(0), delicious(0)) = exp(-100 / 4.5)
    assert acts[2] == pytest.approx(math.exp(-100.0 / 4.5), abs=1e-15)
    assert acts[2] == pytest.approx(2.3e-10, abs=1e-11)


def test_tipper_center_rule_fires_fully(tipper):
    acts = fire_rules(tipper, {"service": 5.0, "food": 5.0})
    assert acts[1] == 1.0


def test_firing_vector_protocol(tipper):
    acts = fire_rules(tipper, {"service": 2.0, "food": 7.0})
    assert len(acts) == 3
    assert list(acts) == [acts[0], acts[1], acts[2]]


def test_rule_weight_scales_activation(tipper):
    weighted = FuzzySystem(
        tipper.name, tipper.kind, tipper.inputs, tipper.outputs,
        tuple(Rule(r.antecedent, r.consequents, 0.5) for r in tipper.rules),
        tipper.settings)
    base = fire_rules(tipper, {"service": 3.0, "food": 4.0})
    half = fire_rules(weighted, {"service": 3.0, "food": 4.0})
    for b, h in zip(base, half):
        assert h == 0.5 * b


def test_type1_firing_matches_oracle():
    # Compiled firing, generated antecedents (inline and with helper
    # functions) and eval_proposition, each equal to hand-written formulas;
    # inputs run half a span past the domains.
    rng = random.Random(21)
    kinds, norms = set(), set()
    for i in range(300):
        fis = helpers.random_t1_system(rng, i)
        kinds.update(type(mf) for var in fis.inputs.values() for mf in var.terms.values())
        norms.update((fis.settings.conjunction, fis.settings.disjunction))
        generated = [codegen.load(codegen.generate(fis, antecedents_only=True, inline_mfs=inline))
                     for inline in (True, False)]
        for _ in range(3):
            inputs = helpers.random_inputs(rng, fis, pad=0.5)
            want = helpers.t1_firing_oracle(fis, inputs)
            assert fire_rules(fis, inputs).activations == want, fis.name
            for fn in generated:
                assert fn(*inputs.values()) == want, fis.name
            for rule, act in zip(fis.rules, want):
                assert rule.weight * eval_proposition(rule.antecedent, fis, inputs) == act
    assert len(kinds) == 7 and len(norms) == len(TNorm) + len(SNorm)


def test_eval_proposition_is_pure(tipper):
    p = Or(And(Relation("service", "good"), Not(Relation("food", "rancid"))),
           Relation("service", "poor"))
    inputs = {"service": 3.3, "food": 6.1}
    first = eval_proposition(p, tipper, inputs)
    assert all(eval_proposition(p, tipper, inputs) == first for _ in range(5))


def test_eval_proposition_compiles_once_per_system_and_proposition(monkeypatch):
    compiled = []
    exec_emitted = engine._emit.exec_emitted

    def counting(w, filename, name):
        compiled.append(filename)
        return exec_emitted(w, filename, name)

    monkeypatch.setattr(engine._emit, "exec_emitted", counting)
    import pickle

    fresh = pickle.dumps(corpus.load_system("tipper"))  # a copy leaves its lowering out
    fis = pickle.loads(fresh)
    p = Or(And(Relation("service", "good"), Not(Relation("food", "rancid"))),
           Relation("service", "poor"))
    rng = random.Random(31)
    points = [{"service": rng.uniform(-2.0, 12.0), "food": rng.uniform(-2.0, 12.0)}
              for _ in range(50)]
    first = eval_proposition(p, fis, points[0]).hex()
    assert compiled == ["<proposition>"]
    again = [eval_proposition(p, fis, x).hex() for x in points]
    equal = Or(And(Relation("service", "good"), Not(Relation("food", "rancid"))),
               Relation("service", "poor"))
    assert eval_proposition(equal, fis, points[0]).hex() == first == again[0]
    assert compiled == ["<proposition>"]  # a repeated or equal proposition compiles nothing
    # each value is what a fresh compilation, on a fresh system, gives
    for x, value in zip(points, again):
        assert eval_proposition(p, pickle.loads(fresh), x).hex() == value
    assert compiled == ["<proposition>"] * 51
    with pytest.raises(EvaluationError):
        eval_proposition(Relation("service", "nope"), fis, points[0])
    eval_proposition(Relation("food", "rancid"), fis, points[0])
    assert compiled == ["<proposition>"] * 52
    assert list(engine._lower(fis).propositions) == [p, Relation("food", "rancid")]


def test_missing_input_error(tipper):
    with pytest.raises(MissingInputError) as exc:
        fire_rules(tipper, {"service": 5.0})
    assert "food" in str(exc.value)


# ---------------------------------------------------------------------------
# Defuzzifiers vs oracles

def _random_curve(rng, n=101, lo=0.0, hi=30.0):
    xs = np.linspace(lo, hi, n)
    mode = rng.random()
    if mode < 0.2:
        mus = np.zeros(n)
    elif mode < 0.6:
        mus = np.clip([helpers.tri(x, 5.0, 12.0, 25.0) for x in xs], 0, rng.random())
        mus = np.asarray(mus)
    else:
        mus = np.array([rng.random() for _ in range(n)])
    return xs, mus


def test_defuzzify_matches_oracles():
    rng = random.Random(31)
    for _ in range(200):
        xs, mus = _random_curve(rng)
        got = defuzzify(Defuzzifier.CENTROID, xs, mus)
        assert got == pytest.approx(helpers.centroid_oracle(xs, mus),
                                    rel=1e-12, abs=1e-12)
        assert defuzzify(Defuzzifier.BISECTOR, xs, mus) == \
            helpers.bisector_oracle(xs, mus)
        assert defuzzify(Defuzzifier.FIRST_OF_MAXIMA, xs, mus) == \
            helpers.maxima_oracle(xs, mus, "first")
        assert defuzzify(Defuzzifier.LAST_OF_MAXIMA, xs, mus) == \
            helpers.maxima_oracle(xs, mus, "last")
        assert defuzzify(Defuzzifier.MEAN_OF_MAXIMA, xs, mus) == \
            pytest.approx(helpers.maxima_oracle(xs, mus, "mean"), abs=1e-12)


def test_defuzzify_symmetric_cases():
    xs = np.linspace(0.0, 30.0, 3001)
    tri15 = np.array([helpers.tri(x, 0.0, 15.0, 30.0) for x in xs])
    assert defuzzify(Defuzzifier.CENTROID, xs, tri15) == pytest.approx(15.0, abs=1e-9)

    xs10 = np.linspace(0.0, 10.0, 1001)
    flat = np.full(1001, 0.4)
    assert defuzzify(Defuzzifier.CENTROID, xs10, flat) == pytest.approx(5.0, abs=1e-9)
    assert defuzzify(Defuzzifier.BISECTOR, xs10, flat) == pytest.approx(5.0, abs=0.01)

    clipped = np.minimum([helpers.tri(x, 0.0, 5.0, 10.0) for x in xs10], 0.5)
    assert defuzzify(Defuzzifier.CENTROID, xs10, clipped) == pytest.approx(5.0, abs=1e-9)
    assert defuzzify(Defuzzifier.MEAN_OF_MAXIMA, xs10, clipped) == \
        pytest.approx(5.0, abs=1e-9)


def test_defuzzify_zero_curve_returns_midpoint():
    xs = np.linspace(2.0, 8.0, 61)
    mus = np.zeros(61)
    for kind in Defuzzifier:
        assert defuzzify(kind, xs, mus) == 5.0


@pytest.mark.parametrize("breach", ["longer_grid", "longer_curve", "empty",
                                    "two_dimensional", "scalar"])
def test_defuzzify_rejects_contract_breach(breach):
    # Two 1-D arrays of equal, nonzero length; every defuzzifier refuses
    # anything else with EvaluationError (BISECTOR and MEAN_OF_MAXIMA used
    # to answer for mismatched lengths, and empty arrays raised IndexError).
    xs = np.array([0.0, 1.0, 2.0])
    args = {
        "longer_grid": (xs, np.array([0.5, 1.0])),
        "longer_curve": (xs[:2], np.array([0.5, 1.0, 0.5])),
        "empty": (np.array([]), np.array([])),
        "two_dimensional": (xs[None, :], np.array([[0.5, 1.0, 0.5]])),
        "scalar": (1.0, 0.5),
    }[breach]
    for kind in Defuzzifier:
        with pytest.raises(EvaluationError):
            defuzzify(kind, *args)


@pytest.mark.parametrize("kind", list(Defuzzifier))
def test_defuzzify_rejects_non_finite_memberships(kind):
    # Every defuzzifier refuses NaN and infinite degrees with EvaluationError
    # (the maxima kinds used to raise a bare IndexError on NaN).
    xs = np.array([0.0, 1.0, 2.0])
    for bad in (math.nan, math.inf, -math.inf):
        for at in range(3):
            mus = np.array([0.25, 0.5, 0.25])
            mus[at] = bad
            with pytest.raises(EvaluationError, match="finite"):
                defuzzify(kind, xs, mus)


# ---------------------------------------------------------------------------
# Mamdani

def test_tipper_crisp_at_center(tipper):
    res = infer_mamdani(tipper, {"service": 5.0, "food": 5.0})
    assert 14.8 <= res.crisp["tip"] <= 15.2
    assert res.degenerate == ()
    assert res.aggregated["tip"].xs[0] == 0.0


def test_tipper_against_dense_oracle(tipper):
    rng = random.Random(41)
    for _ in range(25):
        s, f = rng.uniform(0, 10), rng.uniform(0, 10)
        got = infer_mamdani(tipper, {"service": s, "food": f}).crisp["tip"]
        assert got == pytest.approx(helpers.tipper_oracle(s, f, 20_001), abs=0.05)


def test_tipper_low_corner_lands_in_cheap_region(tipper):
    got = infer_mamdani(tipper, {"service": 0.0, "food": 0.0}).crisp["tip"]
    assert got == pytest.approx(5.0, abs=0.2)
    assert got == pytest.approx(helpers.tipper_oracle(0.0, 0.0), abs=0.05)


def test_single_rule_centroid_is_triangle_center():
    a = Variable("a", Domain(0, 1), {"on": Triangular(0, 0.0, 1)})
    y = Variable("y", Domain(0, 10), {"mid": Triangular(0, 5, 10)})
    fis = FuzzySystem("one", SystemKind.MAMDANI, {"a": a}, {"y": y},
                      (Rule(Relation("a", "on"), (Relation("y", "mid"),)),),
                      EngineSettings(resolution=1001))
    res = infer_mamdani(fis, {"a": 0.0})  # activation exactly 1.0
    assert res.firing[0] == 1.0
    assert res.crisp["y"] == pytest.approx(5.0, abs=1e-9)


def test_mamdani_output_stays_in_domain():
    rng = random.Random(51)
    for i in range(40):
        fis = helpers.random_t1_system(rng, 3 * i)  # mamdani variants
        for _ in range(10):
            res = infer(fis, helpers.random_inputs(rng, fis))
            for name, var in fis.outputs.items():
                assert var.domain.low - 1e-9 <= res.crisp[name] \
                    <= var.domain.high + 1e-9


def test_centroid_monotone_in_rightward_activation():
    a = Variable("a", Domain(0, 1), {"on": Triangular(0, 0, 1),
                                     "off": Triangular(0, 1, 1)})
    y = Variable("y", Domain(0, 30), {"left": Triangular(0, 5, 10),
                                      "right": Triangular(20, 25, 30)})
    rules = lambda w: (
        Rule(Relation("a", "on"), (Relation("y", "left"),), 1.0),
        Rule(Relation("a", "off"), (Relation("y", "right"),), w),
    )
    prev = None
    for w in (0.05, 0.2, 0.4, 0.6, 0.8, 1.0):
        fis = FuzzySystem("m", SystemKind.MAMDANI, {"a": a}, {"y": y}, rules(w))
        got = infer_mamdani(fis, {"a": 0.5}).crisp["y"]
        if prev is not None:
            assert got >= prev - 1e-12
        prev = got


def test_zero_fire_fallback_and_override():
    a = Variable("a", Domain(0, 10), {"band": Triangular(4, 5, 6)})
    y = Variable("y", Domain(0, 8), {"t": Triangular(0, 4, 8)})
    base = FuzzySystem("z", SystemKind.MAMDANI, {"a": a}, {"y": y},
                       (Rule(Relation("a", "band"), (Relation("y", "t"),)),))
    res = infer_mamdani(base, {"a": 9.0})  # nothing fires
    assert res.crisp["y"] == 4.0           # domain midpoint
    assert res.degenerate == ("y",)

    override = FuzzySystem("z", SystemKind.MAMDANI, {"a": a}, {"y": y},
                           base.rules, zero_fire_defaults={"y": 7.5})
    res = infer_mamdani(override, {"a": 9.0})
    assert res.crisp["y"] == 7.5
    assert res.degenerate == ("y",)


def test_mamdani_matches_plain_float_reference():
    # Every aggregation x implication x defuzzifier, on random systems and
    # on inputs drawn past the domains, so some outputs fire no rule.
    rng = random.Random(404)
    combos = list(itertools.product(SNorm, Implication, Defuzzifier))
    degenerate = 0
    for k, (agg, imp, defuzz) in enumerate(combos * 3):
        base = helpers.random_t1_system(rng, 3 * k)  # index % 3 == 0: Mamdani
        settings = dataclasses.replace(base.settings, aggregation=agg,
                                       implication=imp, defuzzifier=defuzz)
        fis = FuzzySystem(base.name, base.kind, base.inputs, base.outputs,
                          base.rules, settings)
        for _ in range(4):
            inputs = helpers.random_inputs(rng, fis, pad=0.5)
            res = infer(fis, inputs)
            aggregated, crisp, degen = helpers.mamdani_reference(fis, res.firing)
            assert {n: c.mus.tolist() for n, c in res.aggregated.items()} == aggregated
            assert res.crisp == crisp, (fis.settings, inputs)
            assert res.degenerate == degen
            degenerate += len(degen)
    assert degenerate > 0


def test_uneven_outputs_match_plain_float_reference():
    # Outputs of 2 and 5 terms share one term matrix, the smaller padded
    # with zero rows; inputs sweep regions where one output fires and the
    # other fires nothing.
    rng = random.Random(505)
    one_sided = 0
    for agg, imp, defuzz in itertools.product(SNorm, Implication, Defuzzifier):
        settings = EngineSettings(implication=imp, aggregation=agg, defuzzifier=defuzz)
        fis = helpers.uneven_outputs_system(rng, settings)
        for a in np.linspace(-1.0, 11.0, 49).tolist():
            res = infer(fis, {"a": a})
            aggregated, crisp, degen = helpers.mamdani_reference(fis, res.firing)
            assert {n: c.mus.tolist() for n, c in res.aggregated.items()} == aggregated
            assert res.crisp == crisp, (fis, a)
            assert res.degenerate == degen
            one_sided += len(degen) == 1 and any(res.firing)
    assert one_sided > 0


def test_aggregated_curves_are_read_only_on_their_grids():
    rng = random.Random(606)
    systems = [corpus.load_system(case) for case in corpus.CASES]
    systems += [helpers.random_t1_system(rng, 3 * k) for k in range(30)]
    systems += [helpers.random_it2_system(rng) for _ in range(30)]
    systems += [helpers.uneven_outputs_system(rng, EngineSettings(), interval)
                for interval in (False, True)]
    for fis in systems:
        res = infer(fis, helpers.random_inputs(rng, fis))
        for name, var in fis.outputs.items():
            agg = res.aggregated[name]
            for curve in (agg.lower, agg.upper) if fis.kind is SystemKind.MAMDANI_IT2 \
                    else (agg,):
                assert np.array_equal(curve.xs, var.domain.grid(fis.settings.resolution))
                for arr in (curve.xs, curve.mus):
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[0] = 0.5


def test_emitted_pipeline_matches_numpy_backend():
    # infer runs the emitted output stage; the numpy array backend
    # (_aggregate + _defuzzify) must give the same crisp values and flags,
    # compared with ==, over every aggregation, implication and defuzzifier.
    rng = random.Random(1111)
    combos = list(itertools.product(SNorm, Implication, Defuzzifier))
    degenerate = 0
    for k in range(300):
        base = helpers.random_t1_system(rng, 3 * k)  # index % 3 == 0: Mamdani
        agg, imp, defuzz = combos[k % len(combos)]
        fis = FuzzySystem(base.name, base.kind, base.inputs, base.outputs, base.rules,
                          dataclasses.replace(base.settings, aggregation=agg,
                                              implication=imp, defuzzifier=defuzz))
        lowering = engine._lower(fis)
        moments = np.stack((np.ones_like(lowering.grids), lowering.grids))
        for _ in range(4):
            res = infer(fis, helpers.random_inputs(rng, fis, pad=0.5))
            curves = engine._aggregate(fis, res.firing.activations)[0]
            values = engine._defuzzify(defuzz, moments, curves)
            want = {name: fis.zero_fire_defaults.get(name, var.domain.midpoint)
                    if value is None else value
                    for (name, var), value in zip(fis.outputs.items(), values)}
            assert res.crisp == want, (fis.settings, res.firing)
            assert res.degenerate == tuple(name for name, value in zip(fis.outputs, values)
                                           if value is None)
            degenerate += len(res.degenerate)
    assert degenerate > 0


@pytest.mark.parametrize("defuzz", list(Defuzzifier))
def test_zero_fire_branch_of_every_defuzzifier_reports_degenerate(tipper, defuzz):
    # NaN inputs fire every tipper rule at NaN, which every aggregation skips:
    # each defuzzifier's zero-fire branch gives the fallback, flagged
    # degenerate, and generated code returns the same value.
    for agg in SNorm:
        fis = FuzzySystem(tipper.name, tipper.kind, tipper.inputs, tipper.outputs,
                          tipper.rules, dataclasses.replace(tipper.settings, aggregation=agg,
                                                            defuzzifier=defuzz))
        res = infer(fis, {"service": math.nan, "food": math.nan})
        assert all(math.isnan(a) for a in res.firing)
        assert res.crisp == {"tip": 15.0} and res.degenerate == ("tip",)
        assert codegen.load(codegen.generate(fis))(math.nan, math.nan) == 15.0


def test_aggregated_is_computed_on_first_read_only(monkeypatch, tipper):
    calls = []
    aggregate = engine._aggregate

    def counting(fis, acts):
        calls.append(fis)
        return aggregate(fis, acts)

    monkeypatch.setattr(engine, "_aggregate", counting)
    res = infer(tipper, {"service": 3.0, "food": 8.0})
    assert calls == [] and list(res.aggregated) == ["tip"] and len(res.aggregated) == 1
    curve = res.aggregated["tip"]
    assert res.aggregated["tip"] is curve and len(calls) == 1
    want = aggregate(tipper, res.firing.activations)[0, 0]
    assert curve.mus.tobytes() == want.tobytes()


def test_aggregated_mapping_is_read_only_and_equals_its_dict(tipper):
    res = infer(tipper, {"service": 3.0, "food": 8.0})
    agg = res.aggregated
    with pytest.raises(TypeError):
        agg["tip"] = None
    with pytest.raises(TypeError):
        del agg["tip"]
    assert not hasattr(agg, "update") and not hasattr(agg, "pop")
    plain = dict(agg)
    assert agg == plain and plain == agg and agg == {"tip": agg["tip"]}
    assert agg != {"tip": engine.SampledCurve(agg["tip"].xs, agg["tip"].mus)}
    assert repr(agg) == repr(plain) and "aggregated={'tip': SampledCurve(" in repr(res)
    assert "nope" not in agg and agg.get("nope") is None
    with pytest.raises(KeyError):
        agg["nope"]


def test_aggregated_pickles_as_a_plain_dict(tipper):
    import pickle

    res = infer(tipper, {"service": 3.0, "food": 8.0})
    data = pickle.dumps(res)
    assert b"FuzzySystem" not in data and b"_LazyCurves" not in data
    back = pickle.loads(data)
    assert type(back.aggregated) is dict and back.crisp == res.crisp
    assert back.aggregated["tip"].mus.tobytes() == res.aggregated["tip"].mus.tobytes()
    assert type(pickle.loads(pickle.dumps(res.aggregated))) is dict


def test_used_systems_and_membership_functions_pickle(tipper):
    # Memos stay out of the pickle: a system's lowering with its compiled
    # functions, and a membership function's compiled formula.  A copy
    # compares equal and refills its own.
    import pickle

    point = {"service": 3.0, "food": 8.0}
    res = infer(tipper, point)
    back = pickle.loads(pickle.dumps(tipper))
    assert back == tipper and "lowering" in tipper._curve_cache
    again = infer(back, point)
    assert again.crisp == res.crisp and again.firing == res.firing
    mf = Gaussian(2.0, 0.7)
    value = mf(1.3)
    mf_back = pickle.loads(pickle.dumps(mf))
    assert mf_back == mf and hash(mf_back) == hash(mf) and repr(mf_back) == repr(mf)
    assert mf_back(1.3) == value and mf(1.3) == value


def test_aggregated_survives_replace_and_feeds_viz_and_eval(tmp_path, capsys, tipper):
    from fuzzkit.cli import main
    from fuzzkit.viz import plot_output

    res = infer(tipper, {"service": 3.0, "food": 8.0})
    moved = dataclasses.replace(res, degenerate=("tip",))
    assert moved.aggregated is res.aggregated
    assert plot_output(moved, "tip") == plot_output(
        engine.InferenceResult(res.crisp, res.firing, dict(res.aggregated)), "tip")
    path = tmp_path / "tipper.fzl"
    path.write_text(corpus.load_text("tipper.fzl"))
    assert main(["eval", str(path), "service=3", "food=8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["crisp"] == res.crisp and payload["firing"] == list(res.firing)


def test_nan_input_behaviour_is_pinned(tipper):
    # Today's behaviour, not a contract (non-finite inputs are still open):
    # type-1 infer runs the emitted output stage, as generated code does, and
    # every aggregation there skips NaN activations, so an output that only
    # NaN activations reach fired no rule.
    robot = corpus.load_system("robot")
    res = infer(robot, {"front": 1.0, "left": 1.0, "heading": math.nan, "goal": 3.0})
    assert sum(1 for a in res.firing if math.isnan(a)) == 16
    assert res.crisp == {"steer": 2.4088440651667935, "vel": 0.25}
    assert res.degenerate == ()
    res = infer(tipper, {"service": math.nan, "food": 5.0})
    assert res.crisp == {"tip": 15.0}
    assert res.degenerate == ("tip",)
    prob_sum = FuzzySystem(
        tipper.name, tipper.kind, tipper.inputs, tipper.outputs, tipper.rules,
        dataclasses.replace(tipper.settings, aggregation=SNorm.PROB_SUM))
    res = infer(prob_sum, {"service": math.nan, "food": 5.0})
    assert res.crisp == {"tip": 15.0}
    assert res.degenerate == ("tip",)
    # Interval type-2: the NaN service fires rule 2 at (nan, nan), which max
    # aggregation ignores; NaN everywhere fires nothing, and so does an
    # infinite service where the food fires no rule either.
    tipper_it2 = corpus.load_system("tipper_it2")
    res = infer(tipper_it2, {"service": math.nan, "food": 7.0})
    assert res.crisp == {"tip": 24.9}
    assert res.intervals == {"tip": (20.099999999999998, 29.7)}
    assert res.degenerate == ()
    assert all(math.isnan(a) for a in res.firing_intervals[1])
    assert res.firing_intervals[0] == (0.0, 0.0)
    res = infer(tipper_it2, {"service": math.nan, "food": math.nan})
    assert res.crisp == {"tip": 15.0}
    assert res.intervals == {"tip": (15.0, 15.0)}
    assert res.degenerate == ("tip",)
    for food, tip in ((5.0, 15.0), (7.0, 24.9)):
        res = infer(tipper_it2, {"service": math.inf, "food": food})
        assert res.crisp == {"tip": tip}
        assert res.degenerate == (("tip",) if food == 5.0 else ())


def test_it2_nan_band_raises_evaluation_error():
    # Under a non-max aggregation the NaN activation of rule 2 reaches the
    # aggregated band, so no switch point of either bound has a finite
    # centroid: an EvaluationError naming the output, not a bare ValueError.
    tipper_it2 = corpus.load_system("tipper_it2")
    prob_sum = FuzzySystem(
        tipper_it2.name, tipper_it2.kind, tipper_it2.inputs, tipper_it2.outputs,
        tipper_it2.rules, dataclasses.replace(tipper_it2.settings, aggregation=SNorm.PROB_SUM))
    with pytest.raises(EvaluationError, match="'tip'"):
        infer(prob_sum, {"service": math.nan, "food": 7.0})
    assert infer(prob_sum, {"service": 8.0, "food": 7.0}).degenerate == ()


# ---------------------------------------------------------------------------
# Sugeno

def _sugeno(terms, rules, inputs=None):
    inputs = inputs or {"x": Variable("x", Domain(0, 10),
                                      {"lo": Triangular(0, 0, 10),
                                       "hi": Triangular(0, 10, 10)})}
    y = Variable("y", Domain(0, 30), terms)
    return FuzzySystem("s", SystemKind.SUGENO, inputs, {"y": y}, rules)


def test_sugeno_symmetric_average():
    fis = _sugeno({"z0": SugenoConstant(0.0), "z10": SugenoConstant(10.0)},
                  (Rule(Relation("x", "lo"), (Relation("y", "z0"),)),
                   Rule(Relation("x", "hi"), (Relation("y", "z10"),))))
    res = infer_sugeno(fis, {"x": 5.0})  # both activations 0.5
    assert tuple(res.firing) == (0.5, 0.5)
    assert res.crisp["y"] == 5.0


def test_sugeno_linear_single_rule():
    fis = _sugeno({"lin": SugenoLinear((("x", 2.0),), 1.0)},
                  (Rule(Relation("x", "hi"), (Relation("y", "lin"),), 0.7),))
    res = infer_sugeno(fis, {"x": 3.0})
    assert res.crisp["y"] == pytest.approx(7.0, abs=1e-12)


def test_sugeno_weighted_average_hand_case():
    # activations 0.2 / 0.8 against constants 10 / 20
    x = Variable("x", Domain(0, 1), {"lo": Triangular(-1, 0, 1),
                                     "hi": Triangular(0, 1, 2)})
    fis = FuzzySystem("s", SystemKind.SUGENO, {"x": x},
                      {"y": Variable("y", Domain(0, 30),
                                     {"a": SugenoConstant(10.0),
                                      "b": SugenoConstant(20.0)})},
                      (Rule(Relation("x", "lo"), (Relation("y", "a"),)),
                       Rule(Relation("x", "hi"), (Relation("y", "b"),))))
    res = infer_sugeno(fis, {"x": 0.8})
    assert tuple(res.firing) == pytest.approx((0.2, 0.8), abs=1e-12)
    assert res.crisp["y"] == pytest.approx((0.2 * 10 + 0.8 * 20) / 1.0, abs=1e-9)


def test_sugeno_output_is_convex_combination():
    rng = random.Random(61)
    for i in range(30):
        fis = helpers.random_t1_system(rng, 3 * i + 2)  # sugeno variants
        for _ in range(10):
            inputs = helpers.random_inputs(rng, fis)
            res = infer_sugeno(fis, inputs)
            acts = list(res.firing)
            for name in fis.outputs:
                zs = []
                for rule, act in zip(fis.rules, acts):
                    if act <= 0.0:
                        continue
                    for rel in rule.consequents:
                        if rel.variable != name:
                            continue
                        term = fis.outputs[name].terms[rel.term]
                        if isinstance(term, SugenoConstant):
                            zs.append(term.value)
                        else:
                            zs.append(sum(c * inputs[n] for n, c in term.coeffs)
                                      + term.offset)
                if zs:
                    assert min(zs) - 1e-9 <= res.crisp[name] <= max(zs) + 1e-9


def test_sugeno_zero_fire_uses_fallback():
    x = Variable("x", Domain(0, 10), {"band": Triangular(4, 5, 6)})
    fis = FuzzySystem("s", SystemKind.SUGENO, {"x": x},
                      {"y": Variable("y", Domain(0, 30),
                                     {"a": SugenoConstant(10.0)})},
                      (Rule(Relation("x", "band"), (Relation("y", "a"),)),))
    res = infer_sugeno(fis, {"x": 0.0})
    assert res.crisp["y"] == 15.0
    assert res.degenerate == ("y",)


# ---------------------------------------------------------------------------
# Dispatcher and pipeline helpers

def test_infer_dispatches_by_kind(tipper):
    assert infer(tipper, {"service": 5, "food": 5}).crisp["tip"] == \
        infer_mamdani(tipper, {"service": 5, "food": 5}).crisp["tip"]
    with pytest.raises(EvaluationError):
        infer_sugeno(tipper, {"service": 5, "food": 5})


def test_grouped_max_output_validation(tipper):
    inputs = {"service": 5.0, "food": 5.0}
    with pytest.raises(EvaluationError):
        grouped_max_output(tipper, inputs, 1, range(0, 2), range(2, 3))
    with pytest.raises(EvaluationError):
        grouped_max_output(tipper, inputs, 256, [], range(0, 3))
    with pytest.raises(EvaluationError):
        grouped_max_output(tipper, inputs, 256, range(0, 2), range(1, 3))
    with pytest.raises(EvaluationError):
        grouped_max_output(tipper, inputs, 256, range(0, 2), range(2, 9))


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None])
def test_grouped_max_output_rejects_non_integer_indices(tipper, bad):
    # A float or bool index is refused up front, not read as a rule (True
    # would be rule 1) or left to fail later as a bare TypeError.
    inputs = {"service": 5.0, "food": 5.0}
    with pytest.raises(EvaluationError, match="not an integer"):
        grouped_max_output(tipper, inputs, 256, [bad], [2])
    with pytest.raises(EvaluationError, match="not an integer"):
        grouped_max_output(tipper, inputs, 256, [0], [2, bad])
    assert grouped_max_output(tipper, inputs, 256, [np.int64(0)], [np.int32(2)]) == \
        grouped_max_output(tipper, inputs, 256, [0], [2])


def test_denoise_detector_requires_26_rules(tipper):
    with pytest.raises(EvaluationError):
        engine.denoise_detector(tipper, {"service": 5.0, "food": 5.0})


@pytest.mark.parametrize("bad", [2.5, 256.0, True, "300", None])
def test_gray_levels_must_be_an_integer(tipper, bad):
    # A float used to scale the readout (2.5 gave 1.5 times the range), and
    # a string or None failed late as a bare TypeError.
    denoise = corpus.load_system("denoise")
    pixels = {name: 10.0 for name in denoise.inputs}
    with pytest.raises(EvaluationError, match="gray_levels"):
        engine.denoise_detector(denoise, pixels, bad)
    with pytest.raises(EvaluationError, match="gray_levels"):
        grouped_max_output(tipper, {"service": 5.0, "food": 5.0}, bad, [0], [2])
    assert engine.denoise_detector(denoise, pixels, np.int64(16)) == \
        engine.denoise_detector(denoise, pixels, 16)


# ---------------------------------------------------------------------------
# Input handling, the same on every entry point.  Type-1 Mamdani, IT2 and the
# readouts convert inputs inside the compiled firing; Sugeno converts first.

def _two_input_sugeno():
    terms = {"lo": Triangular(0, 0, 10), "hi": Triangular(0, 10, 10)}
    inputs = {n: Variable(n, Domain(0, 10), terms) for n in ("x", "z")}
    y = Variable("y", Domain(-50, 50), {"c": SugenoConstant(3.0),
                                        "lin": SugenoLinear((("x", 2.0), ("z", -1.5)), 0.5)})
    return FuzzySystem("s2", SystemKind.SUGENO, inputs, {"y": y},
                       (Rule(And(Relation("x", "lo"), Relation("z", "hi")), (Relation("y", "c"),)),
                        Rule(Relation("x", "hi"), (Relation("y", "lin"),), 0.8)))


def _entry_points():
    tipper = corpus.load_system("tipper")
    it2 = corpus.load_system("tipper_it2")
    return {
        "fire_rules": (tipper, fire_rules),
        "fire_rules_interval": (it2, engine.fire_rules_interval),
        "denoise_detector": (corpus.load_system("denoise"), engine.denoise_detector),
        "grouped_max_output": (tipper, lambda fis, d: grouped_max_output(fis, d, 9, [2, 0], [1])),
        "infer_mamdani": (tipper, infer),
        "infer_it2": (it2, infer),
        "infer_sugeno": (_two_input_sugeno(), infer),
    }


ENTRY_POINTS = sorted(_entry_points())


def _outcome(value):
    """Comparable form of an entry point's result (InferenceResult compares by
    identity)."""
    if not isinstance(value, engine.InferenceResult):
        return value
    curves = {}
    for name, curve in (value.aggregated or {}).items():
        parts = (curve.lower, curve.upper) if isinstance(curve, engine.CurveBand) else (curve,)
        curves[name] = tuple((c.xs.tobytes(), c.mus.tobytes()) for c in parts)
    return (value.crisp, value.firing, curves, value.degenerate, value.intervals,
            value.firing_intervals)


def _integral_inputs(fis):
    return {name: float(round(0.3 * var.domain.low + 0.7 * var.domain.high))
            for name, var in fis.inputs.items()}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_missing_input_names_first_absent_in_declaration_order(entry):
    fis, call = _entry_points()[entry]
    names = list(fis.inputs)
    full = _integral_inputs(fis)
    for absent in ([names[-1]], [names[-1], names[0]], names):
        inputs = {k: v for k, v in full.items() if k not in absent}
        with pytest.raises(MissingInputError) as exc:
            call(fis, inputs)
        first = next(n for n in names if n in absent)
        assert str(exc.value) == f"missing input: {first}"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_unconvertible_inputs_raise_float_errors_in_declaration_order(entry):
    fis, call = _entry_points()[entry]
    names = list(fis.inputs)
    full = _integral_inputs(fis)
    none_msg = "float() argument must be a string or a real number, not 'NoneType'"
    cases = [
        ({**full, names[-1]: None}, TypeError, none_msg),
        # The first input fails conversion before a later one is found missing,
        # and a missing first input is reported before a later None.
        ({names[0]: None}, TypeError, none_msg),
        ({k: None for k in names[1:]}, MissingInputError, f"missing input: {names[0]}"),
        ({**full, names[0]: "abc"}, ValueError, "could not convert string to float: 'abc'"),
        ({**full, names[0]: 1j}, TypeError,
         "float() argument must be a string or a real number, not 'complex'"),
    ]
    for inputs, kind, message in cases:
        with pytest.raises(kind) as exc:
            call(fis, inputs)
        assert type(exc.value) is kind and str(exc.value) == message, inputs


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numeric_like_inputs_match_float_inputs(entry):
    fis, call = _entry_points()[entry]
    full = _integral_inputs(fis)
    want = _outcome(call(fis, full))
    for convert in (lambda v: str(int(v)), int, np.float32, np.float64, bool):
        inputs = {k: convert(v) for k, v in full.items()}
        assert _outcome(call(fis, inputs)) == _outcome(call(fis, {k: float(v) for k, v in
                                                                  inputs.items()}))
        if convert is not bool:
            assert _outcome(call(fis, inputs)) == want, convert


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_dict_inputs_and_lenient_mappings_raise_input_errors(entry):
    fis, call = _entry_points()[entry]
    names = list(fis.inputs)
    full = _integral_inputs(fis)
    missing = {k: v for k, v in full.items() if k != names[0]}
    cases = [
        (list(full.values()), MissingInputError, f"missing input: {names[0]}"),
        (tuple(full.items()), MissingInputError, f"missing input: {names[0]}"),
        (None, TypeError, "argument of type 'NoneType' is not iterable"),
        ("".join(names), TypeError, "string indices must be integers, not 'str'"),
        # Mappings whose ``[]`` fills a missing key still report it missing.
        (collections.defaultdict(float, missing), MissingInputError,
         f"missing input: {names[0]}"),
        (collections.Counter(missing), MissingInputError, f"missing input: {names[0]}"),
    ]
    for inputs, kind, message in cases:
        with pytest.raises(kind) as exc:
            call(fis, inputs)
        assert type(exc.value) is kind and str(exc.value) == message, inputs
    ordered = collections.OrderedDict(reversed(list(full.items())))
    assert _outcome(call(fis, ordered)) == _outcome(call(fis, full))
    assert _outcome(call(fis, {**full, "unknown": "ignored"})) == _outcome(call(fis, full))


@pytest.mark.parametrize("error", [ZeroDivisionError, KeyError])
def test_firing_errors_propagate_from_the_one_call(monkeypatch, error):
    # An error raised inside firing itself, with every input present and
    # convertible, propagates as it was raised, from the one firing call.
    fis = _two_input_sugeno()
    calls = []

    def fire(values):  # reads its inputs as the compiled firing does, then fails
        calls.append([float(values[name]) for name in fis.inputs])
        raise error(f"firing call {len(calls)}")

    monkeypatch.setattr(engine._lower(fis), "fire", fire)
    for call in (fire_rules, infer):
        calls.clear()
        with pytest.raises(error) as exc:
            call(fis, {"x": 1.0, "z": 2.0})
        assert exc.value.args == ("firing call 1",) and len(calls) == 1
    with pytest.raises(MissingInputError):
        fire_rules(fis, {"x": 1.0})


# ---------------------------------------------------------------------------
# Readout and result packaging

def _same(a, b):
    return a == b or (a != a and b != b)


def _generator_readout(acts, gray_levels, first, second):
    # The readout as written out over index iterables.
    l1 = max(acts[i] for i in first)
    l2 = max(acts[i] for i in second)
    l0 = max(0.0, 1.0 - l1 - l2)
    return (gray_levels - 1) * (l1 - l2) / (l1 + l2 + l0)


def _one_rule_per_input_system(n):
    # Rule i fires with the Gaussian membership of input i alone, so a NaN
    # input puts a NaN activation at exactly position i.
    inputs = {f"x{i}": Variable(f"x{i}", Domain(0, 10), {"g": Gaussian(5.0, 2.0)})
              for i in range(n)}
    y = Variable("y", Domain(0, 1), {"t": Triangular(0, 0.5, 1)})
    rules = tuple(Rule(Relation(f"x{i}", "g"), (Relation("y", "t"),)) for i in range(n))
    return FuzzySystem("per_input", SystemKind.MAMDANI, inputs, {"y": y}, rules)


def test_grouped_max_output_matches_generator_readout():
    n = 6
    fis = _one_rule_per_input_system(n)
    groups = [
        (range(0, 3), range(3, 6)),       # contiguous
        ([4, 0, 2], [5, 1]),              # non-contiguous, out of order
        ([3], [1]),                       # one element each
        ([0], [5, 4, 3, 2, 1]),
        ([1, 3, 5], [0]),
    ]
    rng = random.Random(17)
    for trial in range(40):
        inputs = {f"x{i}": rng.uniform(0, 10) for i in range(n)}
        nan_at = trial % (n + 1)  # every position, and none
        if nan_at < n:
            inputs[f"x{nan_at}"] = math.nan
        acts = fire_rules(fis, inputs).activations
        assert (nan_at == n) or math.isnan(acts[nan_at])
        for first, second in groups:
            for levels in (2, 256):
                got = grouped_max_output(fis, inputs, levels, first, second)
                assert _same(got, _generator_readout(acts, levels, first, second))


def test_denoise_detector_matches_generator_readout():
    fis = corpus.load_system("denoise")
    rng = random.Random(3)
    names = list(fis.inputs)
    for trial in range(60):
        inputs = {k: float(rng.randint(-255, 255)) for k in names}
        if trial % 3 == 0:
            inputs[names[trial % len(names)]] = math.nan
        acts = fire_rules(fis, inputs).activations
        want = _generator_readout(acts, 256, range(0, 13), range(13, 26))
        assert _same(engine.denoise_detector(fis, inputs), want)
        assert _same(grouped_max_output(fis, inputs, 256, range(0, 13), range(13, 26)), want)


def _result_objects():
    tipper = corpus.load_system("tipper")
    res = infer(tipper, {"service": 3.0, "food": 8.0})
    band = infer(corpus.load_system("tipper_it2"), {"service": 3.0, "food": 8.0})
    return [res, res.firing, res.aggregated["tip"], band.aggregated["tip"]]


def test_result_objects_are_frozen_dataclasses():
    for obj in _result_objects():
        assert dataclasses.is_dataclass(obj)
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.extra = 1
        assert list(vars(obj)) == [f.name for f in dataclasses.fields(obj)]


def test_result_objects_fields_replace_and_repr():
    res, firing, curve, band = _result_objects()
    assert [f.name for f in dataclasses.fields(engine.InferenceResult)] == [
        "crisp", "firing", "aggregated", "degenerate", "intervals", "firing_intervals"]
    assert [f.name for f in dataclasses.fields(engine.SampledCurve)] == ["xs", "mus"]
    assert [f.name for f in dataclasses.fields(engine.CurveBand)] == ["lower", "upper"]
    assert [f.name for f in dataclasses.fields(engine.FiringVector)] == ["activations"]
    bare = engine.InferenceResult({"y": 1.0}, None, None)
    assert (bare.degenerate, bare.intervals, bare.firing_intervals) == ((), None, None)
    assert repr(bare) == ("InferenceResult(crisp={'y': 1.0}, firing=None, aggregated=None, "
                          "degenerate=(), intervals=None, firing_intervals=None)")
    assert repr(engine.FiringVector((0.5, 1.0))) == "FiringVector(activations=(0.5, 1.0))"
    assert repr(engine.SampledCurve(1, 2)) == "SampledCurve(xs=1, mus=2)"
    assert repr(engine.CurveBand(1, 2)) == "CurveBand(lower=1, upper=2)"
    moved = dataclasses.replace(res, degenerate=("tip",))
    assert moved is not res and moved.degenerate == ("tip",)
    assert (moved.crisp, moved.firing, moved.aggregated) == (res.crisp, res.firing,
                                                             res.aggregated)
    assert dataclasses.replace(curve, mus=curve.xs).mus is curve.xs
    assert dataclasses.replace(band, upper=band.lower).upper is band.lower
    assert dataclasses.replace(firing).activations == firing.activations
    with pytest.raises(TypeError):
        engine.SampledCurve(curve.xs)
    with pytest.raises(TypeError):
        engine.InferenceResult({}, None, None, (), None, None, None)


def test_result_equality_and_hashing():
    a = engine.FiringVector((0.25, 0.5))
    b = engine.FiringVector((0.25, 0.5))
    assert a == b and hash(a) == hash(b) == hash(((0.25, 0.5),))
    assert a != engine.FiringVector((0.5, 0.25))
    assert (a == (0.25, 0.5)) is False
    res, _, curve, band = _result_objects()
    for obj in (res, curve, band):  # identity equality and hashing
        twin = dataclasses.replace(obj)
        assert obj == obj and obj != twin
        assert hash(obj) == object.__hash__(obj)
