"""ddsolve: exact liouvillian-solution solver for integrable
difference-differential systems {sigma(Y)=AY, delta(Y)=BY} of prime order
over Q(x,t), with sigma: x -> x+1 and delta = d/dt."""

from .fields import (TRIVIAL_TOWER, Tower, make_tower, mat_inv,
                     sigma_power_matrix, t, theta, treduce, x)
from .difftools import (dispersion, leading_beta, split_alpha_beta_power,
                        standard_decompose)
from .moser import leading_eigendata, moser_reduce
from .ratsol import (gauge_from_ratios, polynomial_solutions,
                     rational_solutions, universal_denominator)
from .closedform import (UnsupportedCase, hyperexp_solutions, petkovsek,
                         system_hypergeometric)
from .sequences import (HypCert, LiouvilleSolution, interlace,
                        lift_sigma_d_to_sigma, section, seq_from_recurrence,
                        verify_certificates, verify_numeric_window)
from .procedures import (DDSystem, Outcome, check_integrability,
                         decision_procedure_1, decision_procedure_2,
                         solve_liouvillian)
from .parsing import ParseError, parse_expression, parse_ratfunc, print_ratfunc
from .files import (SchemaError, read_solution, read_system, write_solution,
                    write_system)

__version__ = "0.1.0"
