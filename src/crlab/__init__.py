"""crlab: exact-arithmetic CR geometry on the 3-sphere.

Everything is computed over the Gaussian rationals, with zero rounding
error: bigraded spherical harmonics, the Kohn Laplacian / sub-Laplacian /
CR Paneitz spectra, the torsion-free Bochner identity and the eigenvalue
lower bound behind it, deformed CR structures and their exact torsion, and
the first/second variations of the Paneitz operator with their positivity
and negativity verdicts.
"""

from .scalars import GaussianRational, gr
from .spherepoly import Monomial, SpherePoly, one, radius_sq, z1, z1c, z2, z2c
from .integration import inner, integrate
from .operators import (KOHN, CONJ_KOHN, PANEITZ, SUBLAP, T, Z1, Z1BAR, LinOp,
                        MulBy, apply_T, apply_Z1, apply_Z1bar, bochner_residual,
                        common_eigenvalue, conj_kohn, grad_op, kohn,
                        kohn_energy_identity, paneitz, sublap)
from .harmonics import (BEVerdict, HarmonicBasis, basis, be_check, canonical_form,
                        canonicalize, flat_laplacian, sphere_equal)
from .deformation import (ConnectionJets, DegenerateStructureError, TJet,
                          connection_coefficient_jets, paneitz_family_jet, rossi,
                          torsion, torsion_factor, zero_torsion_classify)
from .variation import (HermitianForm, IdentityCheckError, PreconditionError,
                        SecondVariationSplit, assemble_form,
                        classify, drift_operator, drift_square_form, first_variation,
                        pluriharmonic_basis, second_variation,
                        second_variation_decomposition, torsion_potential,
                        variations_from_jets,
                        weighted_gradient_pairing)
from .parsing import EvaluationError, ParseError, parse, parse_poly, evaluate

__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "gr", "Monomial", "SpherePoly", "one", "radius_sq",
    "z1", "z1c", "z2", "z2c",
    "inner", "integrate",
    "KOHN", "CONJ_KOHN", "PANEITZ", "SUBLAP", "T", "Z1", "Z1BAR", "LinOp", "MulBy",
    "apply_T", "apply_Z1", "apply_Z1bar", "bochner_residual", "common_eigenvalue",
    "conj_kohn", "grad_op", "kohn", "kohn_energy_identity", "paneitz", "sublap",
    "BEVerdict", "HarmonicBasis", "basis", "be_check", "canonical_form",
    "canonicalize", "flat_laplacian", "sphere_equal",
    "ConnectionJets", "DegenerateStructureError", "TJet",
    "connection_coefficient_jets", "paneitz_family_jet", "rossi",
    "torsion", "torsion_factor", "zero_torsion_classify",
    "HermitianForm", "IdentityCheckError", "PreconditionError",
    "SecondVariationSplit", "assemble_form", "classify",
    "drift_operator", "drift_square_form", "first_variation", "pluriharmonic_basis",
    "second_variation", "second_variation_decomposition",
    "torsion_potential", "variations_from_jets",
    "weighted_gradient_pairing",
    "EvaluationError", "ParseError", "parse", "parse_poly", "evaluate",
]
