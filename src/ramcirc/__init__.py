"""Ramanujan edge-removal bounds for circulant graphs of odd order.

The complete circulant graph on Z_m stays Ramanujan as whole negation
classes of edges are removed; this package decides exactly how far that
can go for each odd m (the bound hat_l), classifies the orders where an
extra step beyond the generic bound survives, and extends the question
to arbitrary odd abelian groups.
"""

from .abelian import (
    AbelianGroup,
    AbelianVerdict,
    abelian_hat_l,
    abelian_is_ramanujan,
    abelian_oracle,
    pp_excess,
)
from .bounds import (
    C_OFFSETS,
    CPRIMES,
    NOT_IN_J,
    CandidateWitness,
    in_candidate_set,
    interval_index,
    negative_excess_window,
    trivial_bound,
    window_excess,
)
from .classify import (
    ExceptionalBuckets,
    OrdinaryWitness,
    ProfilePoint,
    SpectralOrdering,
    Thresholds,
    Verdict,
    classify,
    count_exceptionals,
    exceptional_orders,
    ordinary_witness,
    profile_point,
    rho_e,
    scan_range,
    semiprime_candidates,
    spectral_ordering,
    thresholds,
)
from .errors import BudgetExceededError, InternalInvariantError, ValidationError
from .numtheory import (
    Factorization,
    FamilyPoint,
    SeriesEstimate,
    avoids_candidate_set,
    count_p2_ratio,
    count_poly,
    factorize,
    family_eval,
    family_scan,
    hardy_littlewood_constant,
    is_prime,
    jacobi,
    landau_normalizer,
    least_prime_factor,
    least_prime_split,
    poly_eval,
    root_count_mod_p,
    sieve_primes,
)
from .oracle import (
    ClassMax,
    CrosscheckReport,
    class_all_ramanujan,
    class_max,
    hat_l_exhaustive,
    semiprime_crosscheck,
)
from .precision import AUTO_EXTENDED_THRESHOLD
from .spectra import (
    CayleySet,
    RamanujanDecision,
    Spectrum,
    eigenvalue,
    is_ramanujan,
    ramanujan_bound,
    spectrum,
    window_complement,
    window_eigenvalue,
)

__version__ = "0.1.0"
