import pytest

from liepseudo.hopf import Hopf
from liepseudo.liecore import preset
from liepseudo.modules import ModuleSpec
from liepseudo.twosided import LEFT

_CACHE: dict[str, Hopf] = {}


def hopf_for(name: str) -> Hopf:
    # one Hopf instance per algebra per worker, so its memos (straightening,
    # dual actions, Euler element, gamma) are shared
    if name not in _CACHE:
        _CACHE[name] = Hopf(preset(name))
    return _CACHE[name]


@pytest.fixture(params=["abelian1", "abelian2", "abelian3", "heis3", "sl2", "solv2"])
def any_preset(request) -> Hopf:
    return hopf_for(request.param)


@pytest.fixture(params=["abelian2", "abelian3", "heis3", "sl2", "solv2"])
def any_preset2(request) -> Hopf:
    """Presets of dimension >= 2."""
    return hopf_for(request.param)


def count_kernel_runs(monkeypatch) -> list:
    """Record (vector, i, orient) for every run of the pseudoaction kernel:
    each `ModuleSpec.action_pv` call that reads the flat action table, and
    not one served from the values it keeps.  The list holds the vectors, so
    their ids stay unique for the test."""
    runs, open_calls = [], []
    real_action, real_flat = ModuleSpec.action_pv, ModuleSpec._flat_table

    def action_pv(self, i, v, orient=LEFT):
        open_calls.append((v, i, orient))
        try:
            return real_action(self, i, v, orient)
        finally:
            open_calls.pop()

    def flat_table(self, orient):
        runs.append(open_calls[-1])
        return real_flat(self, orient)

    monkeypatch.setattr(ModuleSpec, "action_pv", action_pv)
    monkeypatch.setattr(ModuleSpec, "_flat_table", flat_table)
    return runs
