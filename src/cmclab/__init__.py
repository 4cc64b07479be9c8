"""Numerical laboratory for discrete constant-mean-curvature minimization
and equivariant minimal-cone geometry.

The package splits into four layers: cell-grid geometry and perimeter
measures (grid), exact quantized minimization of perimeter minus lambda
times volume (mincut), spectral data of Clifford-type cones (cones), and
profile-curve experiments around those cones (equivariant).  A small CLI
(cmclab) wraps the experiment drivers.
"""

from .grid import (
    UsageError,
    NumericalError,
    STENCIL_FACE,
    STENCIL_CC,
    stencil_levels,
    GridGeometry,
    CellSet,
    RegionMask,
    complement,
    lattice,
    perimeter,
    volume,
    SplitReport,
    split_perimeter,
    boundary_faces,
    rle_encode,
    rle_decode,
    cellset_to_text,
    cellset_from_text,
    read_cellset,
)
from .mincut import (
    QUANT_BITS,
    CapacityOverflowError,
    MinCutProblem,
    MinimizerResult,
    evaluate_quanta,
    solve,
    brute_force,
    ThresholdRow,
    threshold_experiment,
    result_to_json,
)
from .cones import (
    CliffordCone,
    make_cone,
    SpectralData,
    link_spectrum,
    stability,
    indicial_exponents,
    gamma_pm,
    RadialFunction,
    lc_residual,
)
from .equivariant import (
    IntegrationFailure,
    ProfileCurve,
    curve_from_samples,
    mean_curvature_values,
    shoot_leaf,
    fit_decay_exponent,
    leaf_to_radial_graph,
    cmc_graph_residual,
    LinearizationReport,
    linearization_check,
    quadrant_grid,
    cell_weights,
    diagonal_wedge,
    weighted_minimize,
    ApproxRunReport,
    approximation_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "UsageError", "NumericalError", "STENCIL_FACE", "STENCIL_CC",
    "stencil_levels", "GridGeometry", "CellSet", "RegionMask", "complement",
    "lattice", "perimeter", "volume", "SplitReport",
    "split_perimeter", "boundary_faces", "rle_encode", "rle_decode",
    "cellset_to_text", "cellset_from_text", "read_cellset",
    "QUANT_BITS", "CapacityOverflowError", "MinCutProblem", "MinimizerResult",
    "evaluate_quanta", "solve", "brute_force", "ThresholdRow",
    "threshold_experiment", "result_to_json",
    "CliffordCone", "make_cone", "SpectralData", "link_spectrum", "stability",
    "indicial_exponents", "gamma_pm", "RadialFunction", "lc_residual",
    "IntegrationFailure", "ProfileCurve", "curve_from_samples",
    "mean_curvature_values", "shoot_leaf", "fit_decay_exponent",
    "leaf_to_radial_graph", "cmc_graph_residual", "LinearizationReport",
    "linearization_check", "quadrant_grid", "cell_weights", "diagonal_wedge",
    "weighted_minimize", "ApproxRunReport", "approximation_sequence",
]
