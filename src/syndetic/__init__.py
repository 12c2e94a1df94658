"""syndetic: finite-window largeness scales, van der Waerden search, and
verifiable AP-abundance certificates over Z and Z^2."""

from .certificate import (
    CertificateError,
    CertificateParseError,
    DigestMismatchError,
    FgCertificate,
    RefusalError,
    Verdict,
    parse,
    serialize,
    set_digest,
    verify_fg,
)
from .generators import (
    KINDS,
    gen_example,
    periodic_set,
    random_sparse_set,
    striped_set,
    thick_blocks_set,
)
from .pipeline import (
    AffineMap2D,
    APPair,
    ColorTriple,
    ConstructionError,
    PairSet,
    PartitionError,
    PartitionWitness,
    PhiSearchError,
    ScalePreconditionError,
    affine_image,
    color_classes,
    fg_construct,
    find_nontrivial_ap,
    partition_extract,
    pigeonhole_extract,
    progression_pairs,
)
from .textio import (
    SetFormatError,
    dump_window1d,
    load_window1d,
)
from .vdw import (
    DEFAULT_BUDGET,
    APIndex,
    BudgetExhaustedError,
    Coloring,
    MonoAP,
    SpanResult,
    VdwResult,
    dump_coloring,
    dump_vdw_result,
    find_mono_ap,
    vdw_number,
    vdw_span,
)
from .windows import (
    PSWitness1D,
    Scale,
    WindowError,
    WindowSet1D,
    WindowSet2D,
    contains_interval,
    is_ps_at_scale,
    max_run_length,
    ps_scale_1d,
    ps_scale_2d,
    shifted_union_1d,
    shifted_union_2d,
)

__version__ = "0.1.0"
