"""Mutants as committed tests: each entry is a small wrong version of one
function of the package, applied with `monkeypatch`, never by editing the
source text, and names the test that must fail on it.  The test is called
in-process and must raise AssertionError; a mutant that no test kills is a
gap in the suite.

A replacement is installed wherever the original object is bound: on its
class for a method, and for a function under every module-level name of the
package's and the tests' modules that holds it, since modules import
helpers such as `_fold` by name.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

import liepseudo
from liepseudo import _linalg, twosided
from liepseudo.dualx import XElement
from liepseudo.hopf import HElement, Hopf, mi_deg
from liepseudo.pseudoaction import ModuleVector

import test_hopf
import test_linalg
import test_modules
import test_twosided

_TREES = (Path(liepseudo.__file__).parent, Path(__file__).parent)


def _patch_everywhere(monkeypatch, original, replacement) -> None:
    """Bind `replacement` under every module-level name of the package and
    of the tests that holds `original`."""
    found = 0
    for module in list(sys.modules.values()):
        path = getattr(module, "__file__", None)
        if path is None or Path(path).parent not in _TREES:
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)
                found += 1
    assert found, f"{original.__name__} is bound nowhere"


# -- the mutants ---------------------------------------------------------------

def _module_vector_keeping_coordinates(self, hopf, width, terms):
    # rows kept as given, integral Fractions included
    self.hopf, self.width = hopf, width
    self.terms = {I: tuple(row) for I, row in terms.items() if any(row)}


def _h_element_keeping_coefficients(self, hopf, coeffs):
    self.hopf = hopf
    self.coeffs = {I: c for I, c in coeffs.items() if c}


def _x_element_keeping_coefficients(self, hopf, coeffs, validity):
    self.hopf, self.validity = hopf, validity
    self.coeffs = {I: c for I, c in coeffs.items() if c and mi_deg(I) <= validity}


def _divided_in_fractions(real):
    def divided(self, word, denom):
        return {K: Fraction(v) for K, v in real(self, word, denom).items()}
    return divided


def _reducer_add_without_exact(self, row):
    # the pivot normalized by its inverse, products left as they come
    row = self.reduce(row)
    if not row:
        return False
    j0 = min(row)
    p = row[j0]
    if p == -1:
        row = {j: -v for j, v in row.items()}
    elif p != 1:
        inv = _linalg.ONE / p
        row = {j: inv * v for j, v in row.items()}
    for piv in self.pivots.values():
        if j0 in piv:
            _linalg.row_addmul(piv, row, -piv[j0])
    self.pivots[j0] = row
    return True


def _fold_keeping_cancelled_keys(store, M, rows, x):
    # a key whose coordinates cancel stays in place instead of going last
    at = store.get(M)
    if at is None:
        store[M] = {N: [x * c for c in coords] for N, coords in rows}
        return
    for N, coords in rows:
        cur = at.get(N)
        if cur is None:
            at[N] = [x * c for c in coords]
            continue
        for r, c in enumerate(coords):
            if c:
                cur[r] += x * c


def _hmul_with_j_outermost(self, h):
    out: dict = {}
    for J, c in h.coeffs.items():
        for I, row in self.terms.items():
            for K, c2 in self.hopf.mono_mul(J, I).items():
                cur = out.get(K) or out.setdefault(K, [0] * self.width)
                for k, v in enumerate(row):
                    if v:
                        cur[k] += c * c2 * v
    return ModuleVector(self.hopf, self.width, out)


def _install_module_vector(monkeypatch):
    monkeypatch.setattr(ModuleVector, "__init__", _module_vector_keeping_coordinates)


def _install_h_element(monkeypatch):
    monkeypatch.setattr(HElement, "__init__", _h_element_keeping_coefficients)


def _install_x_element(monkeypatch):
    monkeypatch.setattr(XElement, "__init__", _x_element_keeping_coefficients)


def _install_divided(monkeypatch):
    monkeypatch.setattr(Hopf, "_divided", _divided_in_fractions(Hopf._divided))


def _install_reducer_add(monkeypatch):
    monkeypatch.setattr(_linalg.RowReducer, "add", _reducer_add_without_exact)


def _install_fold(monkeypatch):
    _patch_everywhere(monkeypatch, twosided._fold, _fold_keeping_cancelled_keys)


def _install_hmul(monkeypatch):
    monkeypatch.setattr(ModuleVector, "hmul", _hmul_with_j_outermost)


# name -> (install, the test expected to kill the mutant)
MUTANTS = {
    "ModuleVector keeps its coordinates as given":
        (_install_module_vector, test_twosided.test_from_tensor_matches_the_term_by_term_build),
    "HElement keeps its coefficients as given":
        (_install_h_element, test_hopf.test_product_appends_a_key_that_cancels_and_returns),
    "XElement keeps its coefficients as given":
        (_install_x_element, test_hopf.test_int_arithmetic_matches_the_fraction_layer_on_the_presets),
    "Hopf._divided returns Fractions":
        (_install_divided, test_hopf.test_int_arithmetic_matches_the_fraction_layer_on_the_presets),
    "RowReducer.add normalizes a pivot without _exact":
        (_install_reducer_add, test_linalg.test_row_reducer_matches_the_fraction_loop),
    "_fold keeps a cancelled key in place":
        (_install_fold, test_modules.test_apply_map_appends_a_key_that_cancels_and_returns),
    "hmul with J outermost":
        (_install_hmul, test_modules.test_hmul_keeps_the_order_of_its_loops),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_named_test_kills_the_mutant(name, monkeypatch):
    install, killer = MUTANTS[name]
    install(monkeypatch)
    with pytest.raises(AssertionError):
        killer()

