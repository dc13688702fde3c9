"""The benchmark's workloads.

A workload makes seeded inputs, sets the program up, names the operation a
user calls and a traced form of it, and checks outputs against
``oracles``.  The interpreter and generated-code workloads of one model
draw from the same input stream, so both paths see the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fuzzkit import (FuzzySystem, codegen, denoise_detector, fire_rules,
                     fire_rules_interval, format_system, infer, km_reduce,
                     parse_fcl, parse_fis, parse_system)
from fuzzkit.corpus import load_text
from fuzzkit.engine import defuzzify

import oracles
from harness import traced_call, untraced_call

MODEL_DIR = Path(__file__).resolve().parent / "models"

# model file -> (format, system name in the file)
MODELS = {
    "tipper.fzl": ("fzl", "tipper"),
    "tipper.fcl": ("fcl", "tipper"),
    "tipper.fis": ("fis", "tipper"),
    "robot.fcl": ("fcl", "robot"),
    "denoise.fzl": ("fzl", "denoise"),
    "tipper_it2.fzl": ("fzl", "tipper_it2"),
}
_NAME_LINE = {"fzl": "function {}(", "fcl": "FUNCTION_BLOCK {}\n", "fis": "Name='{}'"}
_PARSE = {
    "fzl": ("dsl.parse_system", parse_system),
    "fcl": ("interop.parse_fcl", lambda text: parse_fcl(text)[0]),
    "fis": ("interop.parse_fis", lambda text: parse_fis(text)[0]),
}


def model_text(filename: str) -> str:
    if (MODEL_DIR / filename).is_file():
        return (MODEL_DIR / filename).read_text(encoding="utf-8")
    return load_text(filename)


def renamed(filename: str, text: str, tag: str) -> str:
    """The model under a fresh system name, so that no cache keyed on the
    text or the name can make a load warm.  Tags have a fixed width, so
    every load emits the same number of bytes."""
    fmt, name = MODELS[filename]
    old = _NAME_LINE[fmt].format(name)
    if text.count(old) != 1:
        raise ValueError(f"{filename}: expected one {old!r}")
    return text.replace(old, _NAME_LINE[fmt].format(f"{name}_{tag}"))


def rebuild(fis: FuzzySystem) -> FuzzySystem:
    """The same system built again from its parts: validation alone."""
    return FuzzySystem(fis.name, fis.kind, fis.inputs, fis.outputs, fis.rules,
                       fis.settings, fis.zero_fire_defaults)


@dataclass
class Loaded:
    fis: FuzzySystem
    first: object = None  # what the first call returned
    source: str | None = None
    fn: object = None  # the loaded generated function


def load_model(call, filename: str, text: str, first=None,
               generate: bool = False, antecedents_only: bool = False) -> Loaded:
    """Parse, validate, make the first call, then generate and load code.

    ``call(name, fn, *args)`` makes each call into fuzzkit, so that the
    same sequence runs untraced or with a span per call.
    """
    span, parse = _PARSE[MODELS[filename][0]]
    fis = call("model.FuzzySystem", rebuild, call(span, parse, text))
    loaded = Loaded(fis)
    if first is not None:
        loaded.first = call("engine.first_infer", first, fis)
    if generate:
        loaded.source = call("codegen.generate", codegen.generate, fis, None,
                             True, antecedents_only)
        loaded.fn = call("codegen.load", codegen.load, loaded.source)
    return loaded


class Workload:
    """A model, its input stream and the operation a user calls on it."""

    name = ""
    family = ""  # input streams are keyed by family, not by workload
    model = ""
    chunk = 1000  # operations per timed chunk
    setups = 7  # set-ups per run; setup_s is their median
    warmup = 100  # operations inside each set-up, on inputs of their own
    counted = 1000  # operations whose active rules are counted
    generated = False
    antecedents_only = False  # generated code returns rule activations

    def __init__(self, seed: int):
        self.seed = seed
        self.text = model_text(self.model) if self.model else ""
        self.loaded: Loaded | None = None
        self.run = None  # the timed operation, bound after set-up

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.family}/{self.seed}/{stream}")

    # -- inputs -----------------------------------------------------------
    def rows(self, rng: random.Random, n: int) -> list[tuple]:
        """``n`` fresh input rows, positional in the model's input order."""
        raise NotImplementedError

    def as_arg(self, row: tuple):
        """What a user of this path passes: a dict, or positional floats."""
        return row if self.generated else dict(zip(self.input_names, row))

    def chunks(self):
        rng = self.rng("timed")
        while True:
            yield [self.as_arg(r) for r in self.rows(rng, self.chunk)]

    def first_rows(self, n: int) -> list[tuple]:
        """The first ``n`` rows of the timed stream, whatever the run length."""
        rng, rows = self.rng("timed"), []
        while len(rows) < n:
            rows += self.rows(rng, self.chunk)
        return rows[:n]

    # -- set-up -----------------------------------------------------------
    def prepare_setup(self, k: int):
        rng = self.rng(f"setup{k}")
        rows = self.rows(rng, self.warmup + 1)[:self.warmup + 1]
        return renamed(self.model, self.text, f"s{k:07d}"), [self.as_arg(r) for r in rows]

    def setup(self, prep, call=untraced_call) -> None:
        text, args = prep
        first = None if self.generated else self.first_call(args[0])
        self.loaded = load_model(call, self.model, text, first, self.generated,
                                 self.antecedents_only)
        self.run = self.op()
        for a in args[1:]:
            self.run(a)

    def first_call(self, arg):
        return lambda fis: infer(fis, arg)

    # -- the operation ----------------------------------------------------
    def op(self):
        if self.generated:
            fn = self.loaded.fn
            return lambda a: fn(*a)
        fis = self.loaded.fis
        return lambda d: infer(fis, d)

    def traced(self, tr, op: int, arg):
        root = tr.open("op", -1, op)
        if self.generated:
            out = tr.call("codegen.generated", root, op, self.run, arg)
        else:
            out = self.traced_stages(tr, root, op, arg)
        tr.close(root)
        return out

    def traced_stages(self, tr, root: int, op: int, arg):
        raise NotImplementedError

    def check(self, args, outs) -> list[str]:
        raise NotImplementedError

    def rules_active(self) -> float:
        """Mean count of rules with nonzero activation over the first
        ``counted`` operations of the timed stream."""
        fis = self.loaded.fis
        total = 0
        for row in self.first_rows(self.counted):
            total += sum(1 for a in fire_rules(fis, dict(zip(self.input_names, row)))
                         if a != 0.0)
        return total / self.counted

    def source_bytes(self) -> int:
        """Bytes of source ``generate`` returned in one set-up."""
        return len(self.loaded.source) if self.loaded.source else 0


# ---------------------------------------------------------------------------

class Robot(Workload):
    family = "robot"
    model = "robot.fcl"
    input_names = oracles.ROBOT_ORDER

    def __init__(self, seed: int, generated: bool):
        self.generated = generated
        self.name = "mamdani-robot-gen" if generated else "mamdani-robot"
        super().__init__(seed)

    def rows(self, rng, n):
        spans = [(low, high) for low, high, _ in oracles.ROBOT_INPUTS.values()]
        return [tuple(rng.uniform(low, high) for low, high in spans) for _ in range(n)]

    def traced_stages(self, tr, root, op, d):
        fis = self.loaded.fis
        res = tr.call("engine.infer", root, op, infer, fis, d)
        tr.call("engine.fire_rules", root, op, fire_rules, fis, d)
        kind = fis.settings.defuzzifier
        for curve in res.aggregated.values():
            tr.call("engine.defuzzify", root, op, defuzzify, kind, curve.xs, curve.mus)
        return res

    def check(self, args, outs):
        fis = self.loaded.fis
        problems = []
        if tuple(fis.inputs) != self.input_names or \
                tuple(fis.outputs) != tuple(oracles.ROBOT_OUTPUTS):
            problems.append("robot variables are not in listing order")
        names = tuple(oracles.ROBOT_OUTPUTS)
        if not self.generated:
            rows = [tuple(d[k] for k in self.input_names) for d in args]
            crisp = {o: [r.crisp[o] for r in outs] for o in names}
            return problems + oracles.check_robot(rows, crisp)
        crisp = {o: [out[i] for out in outs] for i, o in enumerate(names)}
        problems += oracles.check_robot(args, crisp)
        # every 16th operation also against the interpreter, at A5's tolerance
        picked = range(0, len(args), 16)
        interp = [infer(fis, dict(zip(self.input_names, args[k]))).crisp for k in picked]
        for i, o in enumerate(names):
            problems += oracles.check_generated(
                f"robot {o}", [outs[k][i] for k in picked], [r[o] for r in interp])
        return problems


class Denoise(Workload):
    """One operation per pixel of seeded 64x64 images with impulses."""

    family = "denoise"
    model = "denoise.fzl"
    warmup = 300
    input_names = tuple(f"x{i}" for i in range(1, 9))
    size = 64
    density = 0.1  # share of pixels replaced by a 0 or 255 impulse

    def __init__(self, seed: int, generated: bool):
        self.generated = self.antecedents_only = generated
        self.name = "denoise-image-gen" if generated else "denoise-image"
        super().__init__(seed)
        self.seen = SeenRows()

    def image(self, rng) -> np.ndarray:
        gen = np.random.default_rng(rng.getrandbits(64))
        r, c = np.mgrid[0:self.size, 0:self.size]
        fr, fc, pr, pc = gen.uniform(0.05, 0.3, 2).tolist() + gen.uniform(0, 6.3, 2).tolist()
        img = 128.0 + 70.0 * np.sin(fr * r + pr) * np.cos(fc * c + pc)
        img = np.clip(np.rint(img + gen.normal(0.0, 8.0, img.shape)), 0, 255)
        hit = gen.random(img.shape) < self.density
        img[hit] = np.where(gen.random(int(hit.sum())) < 0.5, 0.0, 255.0)
        return img.astype(np.int16)

    def rows(self, rng, n=None):
        """Neighbour differences of every interior pixel of the next image,
        in raster order (NW, N, NE, W, E, SW, S, SE minus the centre), less
        any row seen before in this run."""
        img = self.image(rng)
        h, w = img.shape
        centre = img[1:-1, 1:-1]
        diffs = np.stack([img[1 + dr:h - 1 + dr, 1 + dc:w - 1 + dc] - centre
                          for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                          if (dr, dc) != (0, 0)], axis=-1).reshape(-1, 8)
        return [tuple(r) for r in diffs[self.seen.fresh(diffs)].astype(float).tolist()]

    def first_rows(self, n):
        saved, self.seen = self.seen, SeenRows()
        try:
            return super().first_rows(n)
        finally:
            self.seen = saved

    def first_call(self, arg):
        return lambda fis: denoise_detector(fis, arg)

    def op(self):
        if self.generated:
            fn = self.loaded.fn

            def run(a):
                acts = fn(*a)
                l1 = max(acts[0:13])
                l2 = max(acts[13:26])
                l0 = max(0.0, 1.0 - l1 - l2)
                return 255 * (l1 - l2) / (l1 + l2 + l0)
            return run
        fis = self.loaded.fis
        return lambda d: denoise_detector(fis, d)

    def traced_stages(self, tr, root, op, d):
        fis = self.loaded.fis
        y = tr.call("engine.denoise_detector", root, op, denoise_detector, fis, d)
        tr.call("engine.fire_rules", root, op, fire_rules, fis, d)
        return y

    def check(self, args, outs):
        rows = args if self.generated else [tuple(d[k] for k in self.input_names)
                                            for d in args]
        return oracles.check_denoise(rows, outs)


class SeenRows:
    """Exact-repeat filter for integer difference rows.

    A 2**24-bit table indexed by a 64-bit hash of the row: a repeated row
    always finds its bit set and is dropped; a hash clash drops a fresh row
    too, which only makes the stream a little shorter.
    """

    _mult = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                      0xD6E8FEB86659FD93, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53,
                      0x94D049BB133111EB, 0xBF58476D1CE4E5B9], dtype=np.uint64)

    def __init__(self):
        self.bits = np.zeros(1 << 21, dtype=np.uint8)

    def fresh(self, rows: np.ndarray) -> np.ndarray:
        """Indices of rows not seen before, each distinct row once."""
        keys = (rows.astype(np.int64) + 256).astype(np.uint64)
        h = (keys * self._mult).sum(axis=1, dtype=np.uint64)
        slot = (h >> np.uint64(40)).astype(np.int64)
        _, first = np.unique(slot, return_index=True)
        first = np.sort(first)
        byte, mask = slot[first] >> 3, (1 << (slot[first] & 7)).astype(np.uint8)
        new = (self.bits[byte] & mask) == 0
        np.bitwise_or.at(self.bits, byte[new], mask[new])
        return first[new]


class TipperIT2(Workload):
    family = "it2"
    name = "it2-tipper"
    model = "tipper_it2.fzl"
    chunk = 500
    warmup = 50
    input_names = ("service", "food")

    def rows(self, rng, n):
        return [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(n)]

    def traced_stages(self, tr, root, op, d):
        fis = self.loaded.fis
        res = tr.call("engine.infer", root, op, infer, fis, d)
        tr.call("engine.fire_rules_interval", root, op, fire_rules_interval, fis, d)
        for name, var in fis.inputs.items():
            for pair in var.terms.values():
                tr.call("mf.call", root, op, pair.lower, d[name])
                tr.call("mf.call", root, op, pair.upper, d[name])
        for band in res.aggregated.values():
            tr.call("engine.km_reduce", root, op, km_reduce,
                    band.lower.xs, band.lower.mus, band.upper.mus)
        return res

    def check(self, args, outs):
        rows = [(d["service"], d["food"]) for d in args]
        return oracles.check_it2(
            rows, [r.firing_intervals for r in outs],
            [r.aggregated["tip"].lower.mus for r in outs],
            [r.aggregated["tip"].upper.mus for r in outs],
            [r.intervals["tip"] for r in outs], [r.crisp["tip"] for r in outs])

    def rules_active(self):
        fis = self.loaded.fis
        total = 0
        for row in self.first_rows(self.counted):
            acts = fire_rules_interval(fis, dict(zip(self.input_names, row)))
            total += sum(1 for _, hi in acts if hi != 0.0)
        return total / self.counted


class ColdLoad(Workload):
    """One operation loads every model text once under fresh names."""

    name = family = "cold-load"
    chunk = 1
    setups = 5
    counted = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.texts = {f: model_text(f) for f in MODELS}
        self.cycle_no = 0
        self.checked = 0
        self.last: list[Loaded] = []

    def inputs(self, rng) -> dict:
        """First-call input per model; the three tipper files share one, on
        the 0.25 grid where the FCL listing's sampled Gaussians are exact."""
        tip = {"service": rng.randrange(41) * 0.25, "food": rng.randrange(41) * 0.25}
        robot = dict(zip(oracles.ROBOT_ORDER,
                         (rng.uniform(lo, hi) for lo, hi, _ in oracles.ROBOT_INPUTS.values())))
        return {"tipper.fzl": tip, "tipper.fcl": tip, "tipper.fis": tip,
                "robot.fcl": robot,
                "denoise.fzl": {f"x{i}": rng.uniform(-255.0, 255.0) for i in range(1, 9)},
                "tipper_it2.fzl": {"service": rng.uniform(0.0, 10.0),
                                   "food": rng.uniform(0.0, 10.0)}}

    def prepare(self, rng, tag):
        xs = self.inputs(rng)
        return [(f, renamed(f, self.texts[f], tag), xs[f]) for f in MODELS]

    def cycle(self, prep, call=untraced_call) -> list[Loaded]:
        return [load_model(call, f, text, lambda fis, x=x: infer(fis, x),
                           generate=f != "tipper_it2.fzl")
                for f, text, x in prep]

    def prepare_setup(self, k):
        return self.prepare(self.rng(f"setup{k}"), f"s{k:07d}")

    def setup(self, prep, call=untraced_call):
        self.last = self.cycle(prep, call)
        self.run = self.cycle

    def chunks(self):
        rng = self.rng("timed")
        while True:
            self.cycle_no += 1
            yield [self.prepare(rng, f"c{self.cycle_no:07d}")]

    def traced(self, tr, op, prep):
        root = tr.open("op", -1, op)
        out = self.cycle(prep, traced_call(tr, root, op))
        tr.close(root)
        return out

    def check(self, args, outs):
        problems = []
        for prep, loaded in zip(args, outs):
            # re-parsing costs half a cycle: round-trip every 4th cycle
            round_trip = self.checked % 4 == 0
            self.checked += 1
            by_file = {f: (x, ld) for (f, _, x), ld in zip(prep, loaded)}
            problems += oracles.check_formats_agree(
                {f: by_file[f][1].first.crisp["tip"]
                 for f in ("tipper.fzl", "tipper.fcl", "tipper.fis")})
            x, ld = by_file["robot.fcl"]
            problems += oracles.check_robot(
                [tuple(x[k] for k in oracles.ROBOT_ORDER)],
                {o: [ld.first.crisp[o]] for o in oracles.ROBOT_OUTPUTS})
            x, ld = by_file["tipper_it2.fzl"]
            r = ld.first
            problems += oracles.check_it2(
                [(x["service"], x["food"])], [r.firing_intervals],
                [r.aggregated["tip"].lower.mus], [r.aggregated["tip"].upper.mus],
                [r.intervals["tip"]], [r.crisp["tip"]])
            for f, (x, ld) in by_file.items():
                if ld.fn is not None:
                    got = ld.fn(*(x[k] for k in ld.fis.inputs))
                    got = got if isinstance(got, tuple) else (got,)
                    problems += oracles.check_generated(
                        f, got, [ld.first.crisp[o] for o in ld.fis.outputs])
                if round_trip and parse_system(format_system(ld.fis)) != ld.fis:
                    problems.append(f"{f}: parse_system(format_system(fis)) != fis")
        return problems

    def rules_active(self):
        rng, total = self.rng("timed"), 0
        systems = {f: ld.fis for f, ld in zip(MODELS, self.last)}
        for _ in range(self.counted):
            for f, x in self.inputs(rng).items():
                if f == "tipper_it2.fzl":
                    acts = [hi for _, hi in fire_rules_interval(systems[f], x)]
                else:
                    acts = fire_rules(systems[f], x).activations
                total += sum(1 for a in acts if a != 0.0)
        return total / self.counted

    def source_bytes(self):
        return sum(len(ld.source) for ld in self.last if ld.source)


def make(name: str, seed: int) -> Workload:
    return {
        "mamdani-robot": lambda: Robot(seed, generated=False),
        "mamdani-robot-gen": lambda: Robot(seed, generated=True),
        "denoise-image": lambda: Denoise(seed, generated=False),
        "denoise-image-gen": lambda: Denoise(seed, generated=True),
        "it2-tipper": lambda: TipperIT2(seed),
        "cold-load": lambda: ColdLoad(seed),
    }[name]()


NAMES = ("mamdani-robot", "mamdani-robot-gen", "denoise-image",
         "denoise-image-gen", "it2-tipper", "cold-load")
