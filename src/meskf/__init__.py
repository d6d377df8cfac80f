"""Surface-bound vehicle localization: chart-space error-state Kalman
filtering on explicit smooth surfaces, with chart-projected measurement
corrections, a constrained 3-D baseline, and a Monte-Carlo evaluation
harness."""

from .baseline import FullPoseState, PseudoMeasurementConfig
from .core import (FilterState, OdometryInput, RobotExtrinsics, correct,
                   error_jacobians, propagate, wrap_angle)
from .errors import (ConfigError, DegenerateCovarianceError,
                     DegenerateGeometryError, DegenerateSamplingError,
                     MeskfError, NoIntersectionError, NumericalFailureError,
                     OutOfChartError, SingularUpdateError)
from .filters import (CESEKF, FILTER_KINDS, FILTERS, MESEKF, MPESEKF,
                      InitialUncertainty, make_filter)
from .projection import (ProjectedPosition, ProjectedRange, SamplingConfig,
                         associate_to_surface, ellipsoid_tangent_intersection,
                         project_position, project_range,
                         project_range_variance, projected_position_update,
                         projected_range_update, sample_sigma_region)
from .sensors3d import (PoseMeasurement, RangeMeasurement, pose_update,
                        predict_pose, predict_range, range_update)
from .surface import (BSplineSurface, flat_surface, load_surface,
                      save_surface, surface_from_dict, surface_from_grid,
                      world_to_chart)

__version__ = "0.1.0"
