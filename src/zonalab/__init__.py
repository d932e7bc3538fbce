"""Norm experiments for zonal spectral projectors and resolvents on S^n."""

from .dyadic import (DyadicPiece, dyadic_decompose, envelope_check,
                     piece_count, piece_norm_slopes)
from .exponents import (ExponentPoint, admissible, predicted_exponents,
                        segment_endpoints, special_points, stein_point)
from .grids import ZonalFunction, ZonalGrid, cap, load_grid, make_grid, save_grid
from .interpolation import (InterpolationData, certify_restricted_weak,
                            interp_from_fit, optimal_split)
from .norms import lp_norm, weak_lq
from .operators import (AzimuthalSpectrum, NormCertificate, ZonalOperator,
                        apply_kernel, azimuthal_matrix, norm_certificate,
                        norm_lower, norm_upper, operator_from_kernel)
from .resolvent import (ResolventParams, default_degree_cutoff,
                        helmholtz_kernel, multiplier_from_integral,
                        resolvent_kernel, resolvent_multiplier,
                        smooth_cutoff, tail_multiplier)
from .specfun import (SphereSpec, ZonalKernel, eigenvalue, gegenbauer,
                      harmonic_dim, projector_kernel, sphere_volume,
                      zonal_table, zonal_value)

__version__ = "0.1.0"
# the one Gegenbauer implementation, reported in run records
BACKEND = "python"
