"""Construction-time validation of the model layer."""

import numpy as np
import pytest

from fuzzkit import (And, Domain, EngineSettings, FuzzySystem, IntervalMF,
                     ModelError, Not, Or, Relation, Rule, SugenoConstant,
                     SugenoLinear, SystemKind, TNorm, Trapezoidal, Triangular,
                     Variable)


def _mamdani(**overrides):
    kw = dict(
        name="sys",
        kind=SystemKind.MAMDANI,
        inputs={"a": Variable("a", Domain(0, 10), {"lo": Triangular(0, 0, 5),
                                                   "hi": Triangular(5, 10, 10)})},
        outputs={"y": Variable("y", Domain(0, 1), {"n": Triangular(0, 0, 1)})},
        rules=(Rule(Relation("a", "lo"), (Relation("y", "n"),)),),
    )
    kw.update(overrides)
    return FuzzySystem(**kw)


def test_domain_validation_and_grid():
    d = Domain(0, 10)
    assert d.low == 0.0 and d.high == 10.0
    assert d.midpoint == 5.0
    g = d.grid(11)
    assert g[0] == 0.0 and g[-1] == 10.0 and len(g) == 11
    assert np.allclose(np.diff(g), 1.0)
    with pytest.raises(ModelError):
        Domain(5, 5)
    with pytest.raises(ModelError):
        Domain(7, 3)
    with pytest.raises(ModelError):
        Domain(0, float("inf"))


def test_variable_requires_terms():
    with pytest.raises(ModelError):
        Variable("v", Domain(0, 1), {})
    with pytest.raises(ModelError):
        Variable("", Domain(0, 1), {"t": Triangular(0, 0.5, 1)})
    with pytest.raises(ModelError):
        Variable("v", Domain(0, 1), {"t": "not an mf"})


def test_interval_ordering_checked_on_variable():
    # Lower bound above upper anywhere in the domain is rejected.
    bad = IntervalMF(Triangular(0, 5, 10), Triangular(2, 5, 8))
    with pytest.raises(ModelError, match="exceeds upper"):
        Variable("v", Domain(0, 10), {"t": bad})
    good = IntervalMF(Triangular(2, 5, 8), Triangular(0, 5, 10))
    Variable("v", Domain(0, 10), {"t": good})


def test_rule_validation():
    rel = Relation("a", "lo")
    with pytest.raises(ModelError):
        Rule("nope", (rel,))
    with pytest.raises(ModelError):
        Rule(rel, ())
    with pytest.raises(ModelError):
        Rule(rel, (rel,), weight=1.5)
    with pytest.raises(ModelError):
        Rule(rel, (rel,), weight=-0.1)
    r = Rule(And(rel, Not(Or(rel, rel))), (rel,), weight=0.5)
    assert r.weight == 0.5


def test_engine_settings_validation():
    with pytest.raises(ModelError):
        EngineSettings(conjunction="min")
    with pytest.raises(ModelError):
        EngineSettings(resolution=1)
    with pytest.raises(ModelError):
        EngineSettings(resolution=2.0)
    assert EngineSettings(conjunction=TNorm.PROD).conjunction is TNorm.PROD


def test_engine_settings_bound_the_resolution():
    # 1,000 times the default is the most; 10**9 would sample gigabytes.
    assert EngineSettings(resolution=100_000).resolution == 100_000
    with pytest.raises(ModelError, match=r"resolution must be an integer in \[2, 100000\]"):
        EngineSettings(resolution=100_001)
    with pytest.raises(ModelError):
        EngineSettings(resolution=10**9)


def test_system_requires_inputs_outputs_rules():
    with pytest.raises(ModelError, match="no input"):
        _mamdani(inputs={})
    with pytest.raises(ModelError, match="no output"):
        _mamdani(outputs={})
    with pytest.raises(ModelError, match="no rules"):
        _mamdani(rules=())


def test_system_rejects_unknown_references():
    with pytest.raises(ModelError, match="no declared input"):
        _mamdani(rules=(Rule(Relation("zzz", "lo"), (Relation("y", "n"),)),))
    with pytest.raises(ModelError, match="no term"):
        _mamdani(rules=(Rule(Relation("a", "zzz"), (Relation("y", "n"),)),))
    with pytest.raises(ModelError, match="not an output"):
        _mamdani(rules=(Rule(Relation("a", "lo"), (Relation("zzz", "n"),)),))
    with pytest.raises(ModelError, match="is an output"):
        _mamdani(rules=(Rule(Relation("y", "n"), (Relation("y", "n"),)),))


def test_system_rejects_silent_outputs():
    outs = {
        "y": Variable("y", Domain(0, 1), {"n": Triangular(0, 0, 1)}),
        "z": Variable("z", Domain(0, 1), {"n": Triangular(0, 0, 1)}),
    }
    with pytest.raises(ModelError, match="no rule mentions"):
        _mamdani(outputs=outs)


def test_system_rejects_input_output_overlap_and_key_mismatch():
    with pytest.raises(ModelError, match="both input and output"):
        _mamdani(outputs={"a": Variable("a", Domain(0, 1),
                                        {"n": Triangular(0, 0, 1)})},
                 rules=(Rule(Relation("a", "lo"), (Relation("a", "n"),)),))
    with pytest.raises(ModelError, match="does not match"):
        _mamdani(inputs={"b": Variable("a", Domain(0, 10),
                                       {"lo": Triangular(0, 0, 5)})})


def test_kind_term_type_enforcement():
    sug_out = {"y": Variable("y", Domain(0, 1), {"n": SugenoConstant(0.5)})}
    FuzzySystem("s", SystemKind.SUGENO,
                _mamdani().inputs, sug_out,
                (Rule(Relation("a", "lo"), (Relation("y", "n"),)),))
    with pytest.raises(ModelError, match="constant or linear"):
        _mamdani(kind=SystemKind.SUGENO)
    with pytest.raises(ModelError, match="IntervalMF"):
        _mamdani(kind=SystemKind.MAMDANI_IT2)
    with pytest.raises(ModelError, match="membership function"):
        _mamdani(outputs={"y": Variable("y", Domain(0, 1),
                                        {"n": SugenoConstant(0.5)})})


def test_sugeno_linear_references_checked():
    sug_out = {"y": Variable("y", Domain(0, 1),
                             {"n": SugenoLinear((("ghost", 1.0),), 0.0)})}
    with pytest.raises(ModelError, match="unknown input"):
        FuzzySystem("s", SystemKind.SUGENO, _mamdani().inputs, sug_out,
                    (Rule(Relation("a", "lo"), (Relation("y", "n"),)),))


def test_zero_fire_defaults_validated():
    fis = _mamdani(zero_fire_defaults={"y": 0.25})
    assert fis.zero_fire_defaults == {"y": 0.25}
    with pytest.raises(ModelError, match="unknown output"):
        _mamdani(zero_fire_defaults={"ghost": 1.0})


def test_name_accessors_preserve_order():
    fis = _mamdani(inputs={
        "a": Variable("a", Domain(0, 10), {"lo": Triangular(0, 0, 5)}),
        "b": Variable("b", Domain(0, 10), {"lo": Triangular(0, 0, 5)}),
    })
    assert fis.input_names == ("a", "b")
    assert fis.output_names == ("y",)


def test_system_equality_is_structural():
    assert _mamdani() == _mamdani()
    assert _mamdani() != _mamdani(name="other")
    other = _mamdani(outputs={"y": Variable("y", Domain(0, 1),
                                            {"n": Trapezoidal(0, 0, 0.5, 1)})})
    assert _mamdani() != other


def test_sugeno_consequent_values():
    assert SugenoConstant(3).value == 3.0
    lin = SugenoLinear((("a", 2), ("b", -1)), 4)
    assert lin.coeffs == (("a", 2.0), ("b", -1.0))
    assert lin.offset == 4.0
    with pytest.raises(ModelError):
        SugenoConstant(float("nan"))
    with pytest.raises(ModelError):
        SugenoLinear((("a", float("inf")),), 0.0)
    with pytest.raises(ModelError):
        SugenoLinear((("a", 1.0),), float("nan"))
