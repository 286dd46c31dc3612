from fractions import Fraction

import pytest

from liepseudo.errors import TruncationExceeded
from liepseudo.hopf import Hopf, mi_deg, mi_splits
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


def from_tensor_by_terms(f, g, vec, orient: str = LEFT) -> PseudoValue:
    """The normal form of (f (x) g) (x)_H vec, one `ModuleVector` product,
    scale and add per term: the reference for `PseudoValue.from_tensor`, key
    order at both levels included."""
    hopf = f.hopf
    terms: dict = {}
    outer, inner = (f, g) if orient == LEFT else (g, f)
    for J, c in inner.coeffs.items():
        for A, B in mi_splits(J):
            factor = outer * hopf.element(hopf.antipode_mono(A))
            moved = vec.hmul(hopf.mono(B)).scale(c)
            if moved.is_zero():
                continue
            for I, c2 in factor.coeffs.items():
                _acc(terms, I, moved.scale(c2))
    return PseudoValue(hopf, orient, terms)


def ann_action_by_terms(A, v, action_pv):
    """A = sum x_a (x) b_a applied to v one term at a time, each pairing
    computed where it is met: the reference for `annih.ann_action`, key order
    included."""
    hopf = A.hopf
    out = None
    for a, x in enumerate(A.comps):
        if x.is_zero():
            continue
        for I, w in action_pv(a, v).to_left().terms.items():
            if mi_deg(I) > x.validity:
                raise TruncationExceeded(f"annihilation action needs pairing at degree "
                                         f"{mi_deg(I)} but validity is {x.validity}")
            coeff = sum((c * x.coeffs.get(K, 0) for K, c in hopf.antipode_mono(I).items()),
                        Fraction(0))
            if coeff:
                term = w.scale(coeff)
                out = term if out is None else out.add(term)
    return out
