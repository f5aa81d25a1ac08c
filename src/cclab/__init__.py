"""cclab: exact cluster-character workbench for acyclic quivers.

Computes Caldero-Chapoton cluster characters of cluster-category objects
by finite-field point counting with polynomial interpolation, and
verifies the cluster multiplication identities by exact stratified
summation over projectivized extension and morphism spaces.
"""

from .character import CharacterValue, cc, cc_palu_form, coindex, describe
from .errors import (CCLabError, ConfigurationError, InexactDivisionError,
                     InputError, NotPolynomialCountError, PreconditionError,
                     PrimeInstabilityError)
from .grassmannian import (CountingPolynomial, count_subreps,
                           euler_char_grassmannian, grassmannian_profile)
from .laurent import LaurentPolynomial, divide_exact, parse
from .multiplication import (StratumReport, VerificationReport,
                             stratify_ext_side, stratify_hom_side,
                             verify_unified, verify_xx1, verify_xx2)
from .mutation import (Seed, apply_mutations, enumerate_cluster_variables,
                       initial_seed, mutate)
from .quiver import (Quiver, a2_quiver, a3_quiver, antisym_form,
                     d4tilde_quiver, euler_form, kronecker_quiver,
                     validate_quiver)
from .reps import (ClusterObject, Representation, cluster_object, direct_sum,
                   direct_sum_many, ext1_basis, ext1_dim, hom_basis, hom_dim,
                   injective_rep, is_isomorphic, make_rep, middle_term,
                   projective_rep, simple_rep, stable_ext1_dim,
                   stable_hom_dim, standard_module, zero_rep)
from .artranslate import ar_inverse, ar_translate

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
