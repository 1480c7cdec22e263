"""Champernowne base-10 continued-fraction toolkit: digit generation,
closed-form convergent predictions, coefficient computation, and
digit-level verification of every prediction.
"""

from .cfe import (
    NaiveCfe,
    PrecisionError,
    cfe_extract,
    convergent_from_coefficients,
    hwm_convergent,
    naive_cfe,
    numerator_for_hwm,
    read_coefficients,
    required_prefix_position,
    write_coefficients,
)
from .digits import (
    DEFAULT_DIGIT_BUDGET,
    DigitBudgetError,
    DigitLocation,
    DigitPrefix,
    digits_up_to,
    locate_position,
    position_of_integer,
    position_of_power,
)
from .generations import (
    AnchorError,
    ChildScan,
    GenerationEntry,
    child_positions,
    classify,
    find_hwms,
)
from .predict import (
    DenominatorShape,
    SciDecimal,
    child_denominator_shape,
    child_error_profile,
    child_length,
    denominator,
    denominator_sci,
    error_profile,
    failing_integer,
    failure_tail,
    hwm_length,
    longest_nines,
    ncd,
    nines_run,
    numerator_tail,
    parity_consistent,
    parse_denominator_shape,
)
from .verify import (
    CONFIRMED,
    VIOLATION,
    ChildProfile,
    ConvergentProfile,
    InsufficientTruthError,
    measure_error,
    measure_ncd,
    verify_child,
    verify_hwm,
)

__version__ = "0.1.0"
