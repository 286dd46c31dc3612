import pytest

from liepseudo.hopf import Hopf
from liepseudo.liecore import preset
from liepseudo.modules import ModuleSpec
from liepseudo.twosided import LEFT, PseudoValue, _acc

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
    each `ModuleSpec._kernel` call that reads the flat action table, and
    not one served from the values it keeps.  The list holds the vectors, so
    their ids stay unique for the test."""
    runs, open_calls = [], []
    real_kernel, real_flat = ModuleSpec._kernel, ModuleSpec._flat_table

    def kernel(self, i, v, orient):
        open_calls.append((v, i, orient))
        try:
            return real_kernel(self, i, v, orient)
        finally:
            open_calls.pop()

    def flat_table(self, orient):
        runs.append(open_calls[-1])
        return real_flat(self, orient)

    monkeypatch.setattr(ModuleSpec, "_kernel", kernel)
    monkeypatch.setattr(ModuleSpec, "_flat_table", flat_table)
    return runs


def mul_outer(p: PseudoValue, h) -> PseudoValue:
    """Left-multiply by h the slot of p that carries the normal-form
    monomials, one PseudoValue add per term: the reference for the left
    form of `ModuleSpec.w_star`, key order included."""
    out: dict = {}
    for I, v in p.terms.items():
        for K, c in (h * p.hopf.mono(I)).coeffs.items():
            _acc(out, K, v.scale(c))
    return PseudoValue(p.hopf, p.orient, out)


def mul_first(p: PseudoValue, h) -> PseudoValue:
    """Left-multiply the first H-slot of p by h."""
    return mul_outer(p, h) if p.orient == LEFT else p.mul_inner(h)


def mul_second(p: PseudoValue, h) -> PseudoValue:
    """Left-multiply the second H-slot of p by h."""
    return p.mul_inner(h) if p.orient == LEFT else mul_outer(p, h)
