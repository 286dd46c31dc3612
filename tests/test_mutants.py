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

import itertools
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import liepseudo
from liepseudo import _linalg, annih, derham, modules, twosided
from liepseudo.dualx import XElement
from liepseudo.hopf import HElement, Hopf, mi_deg
from liepseudo.liecore import RepData, insert_sign, mat_apply, preset, wedge_basis
from liepseudo.pseudoaction import ModuleSpec, ModuleVector

import test_annih
import test_derham
import test_golden
import test_hopf
import test_liecore
import test_linalg
import test_modules
import test_pseudoalg
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


def _d0_columns_without_sign(lie, n):
    # every term added with sign +1 instead of (-1)^{r+s} times insert_sign's
    cols = {S: {} for S in wedge_basis(lie.dim, n)}
    for T in wedge_basis(lie.dim, n + 1):
        for r, s in itertools.combinations(range(n + 1), 2):
            rest = T[:r] + T[r + 1:s] + T[s + 1:]
            for k, c in lie.bracket(T[r], T[s]).items():
                ins = insert_sign(k, rest)
                if ins is not None:
                    _linalg.add_entry(cols[ins[1]], T, ins[0] * c)
    return cols


def _contraction_without_sign(i, S):
    if i not in S:
        return None
    return 1, tuple(s for s in S if s != i)


def _structure_terms_with_factors_swapped(lie, omega, i, s):
    # e^l_j acting first in the c^j_kl terms
    terms = []
    for k, l in itertools.combinations(range(lie.dim), 2):
        bracket = lie.bracket(k, l)
        terms += [(c, mat_apply(omega.gl_matrix(i, k), derham._image(omega, j, l, s)))
                  for j, c in bracket.items()]
        if bracket.get(k):
            terms.append((bracket[k], derham._image(omega, i, l, s)))
    return terms


def _module_defect_without_the_sign_of_a_b_v(real):
    # a*(b*v) added with +1: the real sum plus twice that term
    def module_defect(a, b, v, bracket, action):
        store = real(a, b, v, bracket, action)
        for I, e in action(b, v).to_left().terms.items():
            for J, w in action(a, e).to_left().terms.items():
                for N, row in w.terms.items():
                    for k, x in enumerate(row):
                        if x:
                            _linalg.add_entry(store, (J, I, N, k), 2 * x)
        return store
    return module_defect


def _closure_sharing_the_inner_rows(real):
    # what a shallow copy of the inner window leaves: the outer closure's
    # rows are the inner closure's row objects, edited in place
    def submodule_closure(V, gens, fil_bound, mode="W", chi=None, inner=None):
        clo = real(V, gens, fil_bound, mode, chi, inner)
        if inner is not None:
            for j, row in inner.window.items():
                row.clear()
                row.update(clo.window[j])
                clo.window[j] = row
        return clo
    return submodule_closure


def _rep_data_keeping_matrices(self, lie, dim, d_mats=None, gl_mats=None):
    # entries kept as given, integral Fractions included; rows made tuples
    self.lie, self.dim, self._valid = lie, dim, False
    self._d = None if d_mats is None else tuple(tuple(map(tuple, m)) for m in d_mats)
    self._gl = None if gl_mats is None else {k: tuple(map(tuple, m)) for k, m in gl_mats.items()}


def _validate_never_raising(self):
    self._valid = True


def _ann_action_none_on_cancellation(real):
    # an element whose terms cancel on a vector reads as one that met none
    def ann_action(els, vectors, action_pv):
        return [[None if w is not None and w.is_zero() else w for w in row]
                for row in real(els, vectors, action_pv)]
    return ann_action


def _from_tensor_restarting_per_tensor(real):
    # the store starts over at each tensor, so only the last one is kept
    def from_tensor(cls, hopf, tensors, orient=twosided.LEFT):
        return real(hopf, list(tensors)[-1:], orient)
    return classmethod(from_tensor)


def _w_star_right_reading_the_first_actor(real):
    # in right normal form only the first nonzero h_a (x) b_a of w acts
    def w_star(self, w, v, orient=twosided.LEFT):
        if orient == twosided.RIGHT:
            comps = w.comps
            first = next((a for a, h in enumerate(comps) if not h.is_zero()), None)
            w = ModuleVector.from_comps(self.hopf, [h if a == first else h.hopf.zero()
                                                    for a, h in enumerate(comps)])
        return real(self, w, v, orient)
    return w_star


def _actor_rows_dropping_a_term(real):
    # the rows are built as if the last h_a of the actor lacked its last term
    def actor_rows(self, w):
        entry = self._actors[w]
        if entry[1] is None:
            terms = entry[0]
            a, h = terms[-1]
            entry[0] = terms[:-1] + [(a, h[:-1])]
            try:
                real(self, w)
            finally:
                entry[0] = terms
        return entry[1]
    return actor_rows


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


def _install_d0_columns(monkeypatch):
    _patch_everywhere(monkeypatch, derham._d0_columns, _d0_columns_without_sign)


def _install_contraction(monkeypatch):
    _patch_everywhere(monkeypatch, derham._contraction, _contraction_without_sign)


def _install_structure_terms(monkeypatch):
    _patch_everywhere(monkeypatch, derham._structure_terms, _structure_terms_with_factors_swapped)


def _install_module_defect(monkeypatch):
    _patch_everywhere(monkeypatch, twosided.module_defect,
                      _module_defect_without_the_sign_of_a_b_v(twosided.module_defect))


def _install_rep_data(monkeypatch):
    monkeypatch.setattr(RepData, "__init__", _rep_data_keeping_matrices)


def _install_validate(monkeypatch):
    monkeypatch.setattr(RepData, "validate", _validate_never_raising)


def _install_ann_action(monkeypatch):
    _patch_everywhere(monkeypatch, annih.ann_action,
                      _ann_action_none_on_cancellation(annih.ann_action))


def _install_closure(monkeypatch):
    _patch_everywhere(monkeypatch, modules.submodule_closure,
                      _closure_sharing_the_inner_rows(modules.submodule_closure))


def _install_from_tensor(monkeypatch):
    monkeypatch.setattr(twosided.PseudoValue, "from_tensor",
                        _from_tensor_restarting_per_tensor(twosided.PseudoValue.from_tensor))


def _install_w_star(monkeypatch):
    monkeypatch.setattr(ModuleSpec, "w_star", _w_star_right_reading_the_first_actor(ModuleSpec.w_star))


def _install_actor_rows(monkeypatch):
    monkeypatch.setattr(ModuleSpec, "_actor_rows", _actor_rows_dropping_a_term(ModuleSpec._actor_rows))


def _on_a_fresh_hopf(test, name):
    """`test` called on a Hopf of the preset `name` built when it runs, so
    that no memo of the Hopfs the tests share keeps a mutant's values."""
    return lambda: test(Hopf(preset(name)))


def _canonical_killer():
    with tempfile.TemporaryDirectory() as tmp:
        test_liecore.test_liecore_values_are_canonical("heis3", Path(tmp))


def _validation_killer():
    # pytest.raises reports a missing exception as its Failed outcome
    try:
        test_liecore.test_rep_validation_catches_errors()
    except pytest.fail.Exception as exc:
        raise AssertionError(str(exc)) from None


def _closure_killer():
    with pytest.MonkeyPatch.context() as monkeypatch:
        test_derham.test_classify_builds_each_closure_once(monkeypatch, "abelian3", 1, "S", 2)


def _actor_rows_killer():
    # every case of the parametrized equivalence test, as pytest would run them
    for name, n, chi_name in itertools.product(["abelian3", "heis3", "sl2", "solv3"], range(4),
                                               ["zero", "tr_ad"]):
        test_modules.test_right_form_w_star_matches_the_per_vector_fold(name, n, chi_name)


def _golden_killer(name):
    def killer():
        with tempfile.TemporaryDirectory() as tmp:
            test_golden.test_report_bytes_match_golden(name, Path(tmp), _NO_CAPTURE)
    return killer


# the capsys stand-in for a golden run: with --out the CLI prints nothing
_NO_CAPTURE = SimpleNamespace(readouterr=lambda: None)


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
    "_d0_columns without (-1)^(r+s)":
        (_install_d0_columns, _on_a_fresh_hopf(test_derham.test_dw2_identity_all_presets, "sl2")),
    "the contraction without insert_sign's sign":
        (_install_contraction, _on_a_fresh_hopf(test_derham.test_dw2_identity_all_presets, "sl2")),
    "dw2 with the factors of e^k_i e^l_j swapped":
        (_install_structure_terms,
         _on_a_fresh_hopf(test_derham.test_dw2_identity_all_presets, "sl2")),
    "module_defect without the sign of a*(b*v)":
        (_install_module_defect, _on_a_fresh_hopf(
            test_pseudoalg.test_module_defect_matches_the_term_by_term_reference, "sl2")),
    "submodule_closure(inner=) sharing the inner rows":
        (_install_closure, _closure_killer),
    "RepData keeps its matrices as given":
        (_install_rep_data, _canonical_killer),
    "RepData.validate never raises":
        (_install_validate, _validation_killer),
    "ann_action returns None on a cancelled value":
        (_install_ann_action,
         test_annih.test_ann_action_matches_the_element_by_element_loop_with_cancellations),
    "from_tensor restarts its store per tensor":
        (_install_from_tensor, test_twosided.test_from_tensor_folds_a_sum_as_the_term_by_term_build),
    "right-form w_star reads only its first actor term":
        (_install_w_star, test_modules.test_action_kernel_matches_the_mul_second_formula),
    "an actor row drops one h_a term":
        (_install_actor_rows, _actor_rows_killer),
    "an actor row drops one h_a term (singular golden)":
        (_install_actor_rows, _golden_killer("singular_heis3_S_omega1")),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_named_test_kills_the_mutant(name, monkeypatch):
    install, killer = MUTANTS[name]
    install(monkeypatch)
    with pytest.raises(AssertionError):
        killer()

