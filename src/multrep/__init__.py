"""Ordered multiplicative representation counting and finite Ramsey tools."""

from .errors import (
    CapacityOverflowError,
    FactorizationLimitError,
    NotSquarefreeError,
    ResourceLimitError,
    SearchBudgetExceeded,
)
from .integer_sets import (
    AllNaturals,
    Complement,
    ExplicitList,
    IndexResidue,
    Intersection,
    MultiplicativeSystem,
    PowersOf,
    Primes,
    PrimesWithOne,
    SetDescription,
    Singleton,
    SmoothOver,
    Squarefree,
    Union,
    basis_system,
    membership,
    parse_set,
    parse_system,
)
from .repcount import (
    RepWitness,
    WindowStats,
    count_basis_reps,
    count_system_reps,
    scan_counts,
    window_stats,
)
from .squarefree_map import (
    PrimeSet,
    factorizations_as_partitions,
    omega,
    phi,
)
from .set_partitions import (
    ByCardinality,
    CorrespondenceReport,
    Explicit,
    ImageOfSet,
    by_cardinality,
    count_ordered_covers,
    explicit_family,
    image_family,
    multinomial,
    verify_correspondence,
)
from .ramsey import (
    Coloring,
    HomogeneousChain,
    constant_coloring,
    decode_product_index,
    doubly_iterated_chain,
    dump_coloring,
    find_homogeneous,
    homogeneous_color,
    iterated_chain,
    load_coloring,
    product_coloring,
    random_coloring,
    verify_chain,
)
from .catalog import (
    INFINITE,
    NamedConstruction,
    VerificationReport,
    build,
    closed_form,
    mh_table,
    primorials,
    verify,
)
from .witness_search import (
    SearchBudget,
    SearchOutcome,
    candidate_stream,
    find_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
