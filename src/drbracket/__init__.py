"""Exact discriminant-resultant computations for pairs of binary forms:
bracket-polynomial identities, triangulated-polygon Laurent expansions,
and machine-checkable algebraic-independence certificates.
"""

__version__ = "0.1.0"

from .binforms import (BinaryForm, DRSeries, NumericDegenerateError,
                       bezout_matrix, det_by_minors, det_fraction_free,
                       discriminant, dr_series, signed_resultant,
                       sl2_transform, sylvester_matrix)
from .brackets import (AssignmentBudgetError, BracketMonomial,
                       BracketPolynomial, BracketSumUndefinedError, alpha,
                       beta, bracket_eval, canonicalize, dr_bracket_sum,
                       forms_from_assignment, plucker_relation,
                       random_generic_assignment, verify_theorem1)
from .independence import (IndependenceCertificate, integer_matrix_rank,
                           jacobian_rank, multiplicative_independence,
                           run_independence_suite)
from .laurent import (DegreeMatrix, LaurentMonomial, LaurentPoly,
                      PolygonModel, degree_matrix_P, dominance_check,
                      laurent_expand_bracket, laurent_expand_poly,
                      lex_leading_monomial, lm_dr_closed_form)
from .multipoly import (MissingVariableError, MultiPoly, NotDivisibleError,
                        interpolate_in_t)
from .rationals import DualScalar, format_rational, parse_rational
