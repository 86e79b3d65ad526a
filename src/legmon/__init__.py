"""Braid-move calculus, framed moduli points, and Legendrian-loop
monodromy maps over exact fields, with a separation harness for the
induced free-product action."""

from .braids import (
    BraidWord,
    IllegalMove,
    LoopReport,
    Move,
    MoveScript,
    ScriptSyntaxError,
    append_generator,
    apply_move,
    builtin_script,
    parse_script,
    verify_loop,
)
from .explorer import (
    PLUECKER_SET,
    RelationReport,
    SeparationWitness,
    SweepReport,
    XiReport,
    faithfulness_sweep,
    reduced_words,
    reverify_witness_q,
    separate,
    verify_relations,
    xi_pluecker_report,
)
from .fields import (
    DEFAULT_PRIME,
    DivisionByZero,
    FieldMismatch,
    FieldScalar,
    ModP,
    PrimeField,
    QQ,
    RationalField,
    field_inverse,
    format_scalar,
)
from .linalg import (
    DegeneracyError,
    DegenerateNormalization,
    Matrix,
    Subspace,
    determinant,
    wedge,
)
from .moduli import (
    FAMILIES,
    Family,
    FlagTuple,
    InvalidPoint,
    ModuliPoint,
    SamplingExhausted,
    T36,
    T44,
    ValidityReport,
    flags_from_point,
    pluecker,
    point_dumps,
    point_from_json,
    point_loads,
    point_to_json,
    random_point,
    validate_bott_samelson,
    validate_point,
)
from .monodromy import (
    DegenerateIntersection,
    act_shift,
    act_sigma1,
    act_word,
    act_xi,
    parse_group_word,
)

__version__ = "0.1.0"
