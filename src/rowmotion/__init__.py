"""Rowmotion dynamics on finite posets with exact homomesy certificates.

The package is organized around a simple pipeline: build a poset
(`families`), enumerate its order ideals (`poset`), act on them
(`dynamics`, `qrow`, `lifted`), measure them (`statistics`), and certify
homomesies by exact linear algebra (`decompose`).
"""

from .poset import (
    Antichain,
    CapExceededError,
    LinearExtension,
    MalformedPosetError,
    OrderIdeal,
    Poset,
    dual,
    enumerate_antichains,
    enumerate_ideals,
    ideal_generated_by,
    is_graded,
    leq,
    linear_extension,
    maximal_elements,
    minimal_complement,
    poset_isomorphic,
    rank_of,
)
from .families import (
    QuotientMap,
    all_minuscule,
    chain_of_vs,
    double_tailed_diamond,
    from_specifier,
    minuscule_E6,
    minuscule_E7,
    rectangle,
    root_poset_A,
    root_poset_B,
    root_poset_D4,
    root_poset_from_cartan,
    shifted_staircase,
    staircase_quotient,
    trapezoid,
    type_b_quotient,
)
from .dynamics import (
    Orbit,
    antichain_rowmotion,
    gyration,
    orbit,
    orbit_partition,
    rank_toggle,
    rowmotion,
    rowmotion_by_toggles,
    rowmotion_sigma,
    toggle,
)
from .statistics import (
    HomomesyReport,
    Statistic,
    antichain_toggleability,
    constant_statistic,
    homomesy_check,
    indicator_ideal,
    named_statistic,
    parse_statistic,
    rook_A,
    rook_B,
    rook_rect,
    rook_sstair,
    t_in,
    t_out,
    t_q,
    t_signed,
    var_rook_B,
)
from .decompose import (
    Decomposition,
    antichain_span_dim,
    decompose,
    q_decompose,
    toggleability_space_dims,
    verify_independence,
)
from .qpoly import (
    CertificateError,
    Polynomial,
    RationalFunction,
    q_binomial,
    q_factorial,
    q_number,
)
from .lifted import (
    BPoint,
    LiftedStatistic,
    PLPoint,
    certificate_witness,
    check_constant,
    lift_statistic,
    lifted_orbit,
    lifted_rowmotion,
    lifted_toggle,
    lifted_toggleability,
    orbit_homomesy_lifted,
    prove_lift,
    random_point,
    vertex_point,
)
from .qrow import (
    FlavorAlphabet,
    QLabeling,
    enumerate_labelings,
    labeling_count,
    q_homomesy_check,
    q_orbits,
    q_rowmotion,
    q_toggle,
)

__version__ = "0.1.0"
