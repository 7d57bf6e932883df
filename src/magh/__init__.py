"""Integer magnitude homology of finite metric spaces, computed exactly.

The public surface:

- `metric`: exact rational metric spaces, generators, validation, closure
- `chains`: proper chains, smoothness, enumeration, length spectra, the
  boundary map
- `algebra`: Smith normal form, chain complexes over Z, the Kunneth formula
- `frames`: frames, the subcomplex decomposition, four-cuts and m_X
- `posets`: interval posets, certificates, and magnitude homology: the
  frame route below m_X, the endpoint-block engine above
- `verify`: cross-checks between independent computation routes
- `cli`: the `magh` command
"""

__version__ = "0.1.0"

from .algebra import (
    ChainComplexZ,
    HomologyGroup,
    HomologyRow,
    HomologyTable,
    SparseIntMatrix,
    complex_from_bases,
    snf,
)
from .chains import (
    LengthSpectrum,
    ProperChain,
    boundary,
    chain_length,
    enumerate_proper_chains,
    is_strictly_smooth,
    length_spectra,
    length_spectrum,
)
from .errors import MaghError
from .frames import (
    FourCut,
    MxResult,
    four_cuts,
    frame,
    frame_subcomplex,
    is_frame,
    is_geodesically_simple,
    is_realized_frame,
    m_x,
    simp_decomposition,
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
    IntervalPoset,
    frame_homology_via_posets,
    interval_poset,
    magnitude_homology,
    mh2_certificate,
    order_complex,
    poset_component_count,
    reduced_complex,
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
    "ProperChain",
    "LengthSpectrum",
    "is_strictly_smooth",
    "chain_length",
    "enumerate_proper_chains",
    "length_spectrum",
    "length_spectra",
    "boundary",
    "SparseIntMatrix",
    "snf",
    "HomologyGroup",
    "ChainComplexZ",
    "complex_from_bases",
    "magnitude_homology",
    "HomologyRow",
    "HomologyTable",
    "frame",
    "is_geodesically_simple",
    "is_frame",
    "is_realized_frame",
    "frame_subcomplex",
    "simp_decomposition",
    "FourCut",
    "four_cuts",
    "MxResult",
    "m_x",
    "IntervalPoset",
    "interval_poset",
    "order_complex",
    "reduced_complex",
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
