"""corelat: exact lattice-point machinery for affine Weyl groups and cores.

Root systems are built from Cartan matrices with all arithmetic over the
rationals; core partitions model the type-A coroot lattice through the
balanced-abacus bijection; the classical types and G2 embed into type A;
the b-dilation regions generalize simultaneous cores; and weighted
Ehrhart enumeration verifies the counting and expectation formulas.
"""

from .affine import (
    AffineElement,
    AffineRoot,
    AffineWord,
    alcove_reduce,
    apply,
    compute_w_b,
    inversion_sequence,
    is_reduced,
    size_i_lattice,
    size_b,
    size_lattice_total,
)
from .cores import (
    all_cores,
    boundary_word,
    conjugate,
    conjugate_coroot,
    content_counts,
    from_coroot,
    is_core,
    to_coroot,
    toggle_action,
)
from .ehrhart import (
    ExpectationReport,
    Quasipolynomial,
    expected_size,
    fit_quasipolynomial,
    interpolate,
    reciprocity_roots,
    typea_series_check,
    weighted_enumerator,
)
from .models import (
    CONJUGATE,
    EmbeddedPoint,
    embed,
    generator_dictionary,
    self_conjugate_cores,
)
from .rootsys import (
    CartanType,
    Root,
    RootSystemData,
    build,
    build_named,
    norm2,
    pairing,
    roots_of_height,
)
from .sommers import (
    CoreSet,
    SommersRegion,
    capped,
    contains,
    enumerate_alcove,
    enumerate_cores,
    haiman_count,
    max_size,
    simultaneous_selfconjugate,
    sommers_region,
)

__version__ = "0.1.0"
