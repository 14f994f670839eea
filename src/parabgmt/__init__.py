"""parabgmt: computational parabolic geometric measure theory.

Modules:
    geometry   exact parabolic metric algebra, planes, cones, graphs
    measure    discrete measures and covering-based estimators
    rectify    tangent detection, blow-ups, differentiability fits
    generators deterministic fractal example sets
    checks     the invariant check table that `verify` and the tests run
    cli        command line front end
"""

from ._version import __version__
from .geometry import (
    Cone,
    ConeViolationError,
    DimensionMismatchError,
    GraphSamples,
    HomPlane,
    ParaPoint,
    blowup_map,
    complement_plane,
    cone_membership,
    dist_rows,
    graph_cone_check,
    graph_extract,
    para_norm,
    para_norm_rows,
    plane_distance,
    project,
    project_rows,
    sample_planes,
)
from .measure import (
    CoveringReport,
    DensityEstimate,
    DiscreteMeasure,
    FlatConstantEstimate,
    GridMap,
    LipCoverSum,
    default_scales,
    dimension_fit,
    density_profile,
    flat_constant_estimate,
    greedy_cover,
    lip_image_cover_sum,
    load_cloud_csv,
    save_cloud_csv,
)
from .generators import (
    BmoEnergy,
    ConstructionError,
    DefeaterTree,
    GeneratorSpec,
    PairNotFoundError,
    QuarticStructure,
    bmo_energy,
    defeater_energies,
    find_equal_pair,
    gen_cantor_segments,
    gen_flat,
    gen_graph,
    gen_quartic_cantor,
    gen_regular_defeater,
    gen_vertical_cantor,
    gen_weierstrass_graph,
    generate,
    holder_lower,
    holder_upper,
    sidecar_payload,
    weierstrass_eval,
    weierstrass_truncation,
)
from .rectify import (
    DifferentialFit,
    FitConfig,
    PointTangent,
    TangentConfig,
    TangentReport,
    UniquenessScan,
    blowup_measure,
    classify_points,
    cone_defect,
    detect_tangent,
    fit_differential,
    flatness_defect,
    tangent_uniqueness_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
