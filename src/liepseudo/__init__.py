"""Exact-arithmetic kernel for Lie pseudoalgebras of type W and S.

Everything is computed over the rationals with no floating point: the
enveloping algebra H = U(d) in its divided-power PBW basis, the truncated
dual X = H*, the pseudoalgebras W(d) and S(d, chi) with their annihilation
algebras, tensor modules and their singular vectors, and the (twisted)
pseudo de Rham complex.
"""

from .liecore import LieData, RepData, TraceForm, preset, omega_rep, sym2_dual_rep
from .hopf import Hopf, HElement
from .dualx import XElement, DEFAULT_TRUNCATION
from .twosided import PseudoValue
from .pseudoalg import WAlgebra, cur_algebra_bracket
from .annih import AnnElement, ann_bracket, euler_element, gamma, gr_iso_gl
from .modules import (
    ModuleSpec,
    ModuleVector,
    dual_module,
    shifted_module,
    sing_solve,
    sing_solve_oracle,
    solve_intertwiner,
    submodule_closure,
    tensor_module,
    twist_module,
)
from .derham import classify_report, exactness_report, pseudo_d

__all__ = [
    "LieData",
    "RepData",
    "TraceForm",
    "preset",
    "omega_rep",
    "sym2_dual_rep",
    "Hopf",
    "HElement",
    "XElement",
    "DEFAULT_TRUNCATION",
    "PseudoValue",
    "WAlgebra",
    "cur_algebra_bracket",
    "AnnElement",
    "ann_bracket",
    "euler_element",
    "gamma",
    "gr_iso_gl",
    "ModuleSpec",
    "ModuleVector",
    "dual_module",
    "shifted_module",
    "sing_solve",
    "sing_solve_oracle",
    "solve_intertwiner",
    "submodule_closure",
    "tensor_module",
    "twist_module",
    "classify_report",
    "exactness_report",
    "pseudo_d",
]

__version__ = "0.1.0"
