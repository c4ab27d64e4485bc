"""Factorization arithmetic of finite and locally finite monoids under a preorder."""

from .errors import (
    BadIdentityError,
    BoundTooSmallError,
    CapExceededError,
    DegreeTooSmallError,
    DetTooLargeError,
    NonAssociativeError,
    NotComputableError,
    NotFactorableError,
    NotProductOneError,
    NotWeaklyPositiveError,
    PremonoidsError,
    ShapeError,
    SingularMatrixError,
)
from .factorization import (
    Classification,
    ElementProfile,
    classify,
    element_profile,
    enumerate_factorizations,
    factorization_alphabet,
    length_set,
    minimal_factorization_classes,
    realizable_vectors,
)
from .irreducibles import (
    GeneratingSetCertificate,
    IrreducibleReport,
    atoms,
    irreducible_generating_set,
    irreducible_report,
    irreducibles,
    is_atom,
    is_irreducible,
    is_quark,
    quarks,
    unit_orbits,
)
from .lengthset import LengthSet
from .monoid import FiniteMonoid, StructureFlags
from .premonoid import Premonoid, PremonoidFlags, SubPremonoid
from .preorder import (
    PreorderRel,
    divisibility_preorder,
    phi_preorder,
    preorder_from_json,
    pullback_preorder,
)
from .verify import CheckResult, verify_suite
from .words import (
    erdos_rado_scan,
    mutual_rows,
    shuffle_leq,
    shuffle_leq_matching,
)

__all__ = [name for name in dir() if not name.startswith("_")]
