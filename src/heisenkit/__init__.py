"""heisenkit: desk-scale verification of operator inequalities in group
algebras, rotation-representation sweeps, exact symmetrization identities,
graded augmentation arithmetic, and Cayley-graph spectral gaps."""

from .algebra import (AlgebraElement, heis_laplacian, heis_xyz,
                      hermitian_square, laplacian, one_minus,
                      sos_identity_sides, steinberg_check)
from .expander import (CayleyGraph, enumerate_group, family_report, sl_order,
                       spectral_gap)
from .graded import (GradedElement, box_element, evaluate_phi,
                     graded_dimension, graded_mul, graded_star,
                     gram_matrix_check, phi_report, to_graded)
from .groups import Heisenberg, SpecialLinear
from .linalg import (hermitian_norm, hermitian_operator, min_eigenvalue,
                     spectral_norm, spectral_projection)
from .rotation import (RationalAngle, almost_mathieu, bz_bound, evaluate,
                       farey_angles, pi_theta, tensor_operator, x_op, y_op,
                       z_scalar)
from .sweeps import (SweepReport, verify_bz, verify_formula, verify_prodnorm,
                     verify_smalltheta, verify_xsmall, verify_xyz1,
                     verify_xyz2, verify_zzz)
from .symmetrize import (EdgeSymbol, FormalQuadratic, StabilityCertificate,
                         build_parts, edge_pair_census, instantiate_el5,
                         orbit_sum, spade_to_heart, stability_threshold)

__version__ = "0.1.0"
