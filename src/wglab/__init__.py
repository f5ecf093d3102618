"""Desk-scale circle-method laboratory for sums of prime powers drawn
from a short window (x - y, x + y].

Subpackage map:

- arith: interval sieve, factorization, admissibility, problem contexts
- expsums: exact-phase exponential sums over the prime window
- arcs: Farey dissection, Dirichlet approximation, arc bookkeeping
- singular_series: Gauss sums and the truncated singular series
- singular_integral: the continuous main-term factor and its oscillatory kin
- representations: exact weighted representation counts (naive, meet-in-the-middle, lattice FFT)
- experiment: prediction vs count scans, arc quadrature, moments
- cache: on-disk numpy archives of the scan's columns (rho, sigma, j)
- csvtext: CSV text of column tables, rendered in blocks of byte columns
- cli: command-line front end
"""

from .arith import ProblemContext, PrimeWindow, admissible, modulus_R, prime_window, sieve_interval
from .arcs import ArcDecomposition, ArcParams, RationalPoint, classify, dirichlet_approx
from .errors import WglabError
from .experiment import ExceptionalReport, exceptional_scan
from .expsums import WeightedSequence, build_sequence, eval_sum
from .representations import RepresentationRecord, RepresentationTable, rho_mitm, rho_naive
from .singular_integral import j_integral, oscillatory_I, v_eval
from .singular_series import GaussSumValue, SeriesTruncation, gauss_sum, truncated_sigma

__version__ = "0.1.0"

__all__ = [
    "ArcDecomposition",
    "ArcParams",
    "ExceptionalReport",
    "GaussSumValue",
    "PrimeWindow",
    "ProblemContext",
    "RationalPoint",
    "RepresentationRecord",
    "RepresentationTable",
    "SeriesTruncation",
    "WeightedSequence",
    "WglabError",
    "admissible",
    "build_sequence",
    "classify",
    "dirichlet_approx",
    "eval_sum",
    "exceptional_scan",
    "gauss_sum",
    "j_integral",
    "modulus_R",
    "oscillatory_I",
    "prime_window",
    "rho_mitm",
    "rho_naive",
    "sieve_interval",
    "truncated_sigma",
    "v_eval",
    "__version__",
]
