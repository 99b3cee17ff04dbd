"""Exact incidence algebra of F-denominated graded posets.

Cobweb posets and their generalizations are built as natural joins of
bipartite layers; zeta, Moebius, cover, and maximal-chain matrices are
computed along independent routes and cross-checked against brute-force
chain enumeration.  All arithmetic is exact.
"""

from .blockmat import BOOL, INT, BlockMatrix, MatrixError, RingError, add, mul, \
    nilpotent_closure, unitriangular_inverse
from .chains import Chain, count_head_chains, count_interval_chains, \
    count_layer_chains, count_tail_chains, enumerate_max_chains, layer_chain_counts
from .fsequence import AdmissibilityVerdict, FSequence, SequenceError, const, \
    custom, f_factorial, f_falling, fib, fnomial, from_file, gauss, \
    is_cobweb_admissible, nat, preset
from .incidence import CodingMatrix, LevelMatrix, coding_matrix, \
    coding_recurrence, eta, eta_inverse, interval_mobius, kappa, kroton, \
    level_eta, level_eta_inverse, level_max, level_max_inverse, level_mobius, \
    level_zeta, logic_L, max_inverse, max_matrix, mobius, reachable_sets, zeta
from .invariants import CharPoly, RootedPoset, char_poly, root, whitney_first, \
    whitney_second
from .poset import GradedPoset, NodeLabel, PosetError, antichain, cobweb, \
    cobweb_of_sizes, from_blocks, layer, natural_join, ordinal_sum
from .suites import CheckResult, run_checks

__version__ = "0.1.0"
