"""Integer magnitude homology of finite metric spaces, computed exactly.

The public surface:

- `metric`: exact rational metric spaces, generators, validation, closure
- `chains`: smoothness, the chain searches, length spectra, the boundary
  on tuples of points
- `algebra`: Smith normal form, homology over Z from boundary columns,
  the Kunneth formula, the endpoint-block engine
- `frames`: frames, the chain-level frame route, four-cuts and m_X
- `posets`: interval posets, certificates, and magnitude homology: the
  frame route below m_X, the endpoint-block engine above
- `verify`: cross-checks between independent computation routes
- `cli`: the `magh` command
"""

__version__ = "0.1.0"

from .algebra import (
    HomologyGroup,
    HomologyRow,
    HomologyTable,
    SparseIntMatrix,
    snf,
)
from .chains import (
    LengthSpectrum,
    is_strictly_smooth,
    length_spectra,
)
from .errors import MaghError
from .frames import (
    FourCut,
    MxResult,
    four_cuts,
    frame,
    is_frame,
    is_geodesically_simple,
    is_realized_frame,
    m_x,
)
from .metric import (
    FiniteMetricSpace,
    complete_space,
    cycle_space,
    metric_closure,
    path_space,
    quantize,
    random_metric,
    validate_metric,
)
from .posets import (
    Certificate,
    frame_homology_via_posets,
    magnitude_homology,
    mh2_certificate,
    poset_component_count,
)
from .verify import (
    VerificationReport,
    check_d_squared,
    check_frame_injectivity,
    check_simp_iso,
    check_tensor_route,
    run_checks,
)

__all__ = [
    "__version__",
    "MaghError",
    "FiniteMetricSpace",
    "validate_metric",
    "cycle_space",
    "path_space",
    "complete_space",
    "random_metric",
    "metric_closure",
    "quantize",
    "LengthSpectrum",
    "is_strictly_smooth",
    "length_spectra",
    "SparseIntMatrix",
    "snf",
    "HomologyGroup",
    "magnitude_homology",
    "HomologyRow",
    "HomologyTable",
    "frame",
    "is_geodesically_simple",
    "is_frame",
    "is_realized_frame",
    "FourCut",
    "four_cuts",
    "MxResult",
    "m_x",
    "poset_component_count",
    "frame_homology_via_posets",
    "Certificate",
    "mh2_certificate",
    "VerificationReport",
    "check_d_squared",
    "check_simp_iso",
    "check_frame_injectivity",
    "check_tensor_route",
    "run_checks",
]
