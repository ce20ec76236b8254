"""Exact invariants of contact (+1/-1)-surgery diagrams on the three-sphere.

The package computes, in exact rational arithmetic, the d3-invariant and
Euler class of the contact structure presented by a surgery diagram, the
classical invariants of a distinguished knot in the surgered manifold,
and the first homology of the boundary; on top of that it reproduces the
census of tight contact structures on the lens spaces L(n*s^2-s+1, s^2)
realised by single Legendrian surgeries.
"""

from .exactla import (
    DimensionError,
    ExactLAError,
    IntMatrix,
    SingularMatrixError,
    SmithDecomposition,
    cokernel_coordinates,
    det,
    signature,
    smith,
    solve,
)
from .diagram import (
    DiagramError,
    DiagramFormatError,
    DiagramValidationError,
    DistinguishedKnot,
    LegendrianComponent,
    MissingKnotError,
    SurgeryDiagram,
    Violation,
    diagram_from_json,
    diagram_to_json,
    extended_matrix,
    linking_matrix,
    load_diagram,
    promote_knot,
    save_diagram,
    validate,
)
from .invariants import (
    D3PreconditionError,
    InvariantError,
    InvariantReport,
    NonTorsionEulerClassError,
    c_squared,
    chi,
    d3,
    euler_class,
    q_plus,
    report,
    rot_surgered,
    tb_surgered,
)
from .lens import (
    LensSpace,
    LensSpaceError,
    NegContFrac,
    eval_neg_contfrac,
    neg_contfrac,
    tight_count,
)
from .families import (
    DistinctnessBounds,
    ExceptionalClass,
    ExceptionalExpectations,
    FamilyParams,
    FamilyParamsError,
    StandardClass,
    StandardRealization,
    TightStructureCensus,
    census,
    distinctness_bounds,
    exceptional_diagram,
    exceptional_expectations,
    family_params_grid,
    standard_diagram,
    standard_realizations,
    standard_rot_range,
    surgered_diagram,
)

__version__ = "0.1.0"
