"""Embedded example systems: tipper, denoise, robot, and an interval
type-2 tipper."""

from __future__ import annotations

from importlib import resources

from ..model import FuzzySystem

#: case name -> bundled file
CASES = {
    "tipper": "tipper.fzl",
    "denoise": "denoise.fzl",
    "robot": "robot.fcl",
    "tipper_it2": "tipper_it2.fzl",
}

_cache: dict[str, FuzzySystem] = {}


def corpus_path(filename: str):
    """Traversable path of a bundled model file."""
    return resources.files(__package__).joinpath(filename)


def load_text(filename: str) -> str:
    return corpus_path(filename).read_text(encoding="utf-8")


def load_system(case: str) -> FuzzySystem:
    """Parsed system for a named case; instances are cached and shared."""
    if case not in CASES:
        raise KeyError(f"unknown corpus case {case!r}; have {sorted(CASES)}")
    fis = _cache.get(case)
    if fis is None:
        filename = CASES[case]
        text = load_text(filename)
        if filename.endswith(".fcl"):
            from ..interop import parse_fcl

            fis, _ = parse_fcl(text, origin=filename)
        else:
            from ..dsl import parse_system

            fis = parse_system(text, origin=filename)
        _cache[case] = fis
    return fis
