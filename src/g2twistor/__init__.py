"""Numerical exterior algebra and twistor CR geometry of G2 structures."""

from .forms import (
    KForm,
    MetricTensor,
    annihilator_basis,
    annihilator_dimension,
    contract,
    hodge_star,
    inner_product,
    sharp,
    flat,
    transform,
    wedge,
)
from .pointwise import (
    G2Point,
    Su3Frame,
    hodge_type_on_complement,
    induced_metric,
    is_associative_subspace,
    octonion_multiply,
    project_lambda2,
    standard_g2_point,
    su3_structure,
)
from .fields import (
    StructureField,
    exterior_derivative,
    fernandez_gray_residual,
    levi_civita,
    curvature_g2_check,
    make_field,
)
from .twistor import (
    TwistorPoints,
    frobenius_bracket,
    involutivity_residual,
    tautological_forms,
    twistor_point,
    twistor_points,
)
from .instanton import (
    ConnectionData,
    cr_holomorphicity_residual,
    is_g2_instanton,
    make_connection,
)

__version__ = "0.1.0"
