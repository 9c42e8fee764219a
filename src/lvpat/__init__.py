"""Limited-view photoacoustic tomography in 2D: wave simulation on elliptical
boundaries, learned completion of missing boundary data by projection onto
training traces, and universal back-projection reconstruction."""

from .errors import (ContainerFormatError, DataMismatchError, ParameterError,
                     SingularTrainingSetError)
from .extension import (ExtensionModel, TrainingSet, build_training_set,
                        extend, factorize, gram_matrix, load_model,
                        project_coefficients, save_model, stitch,
                        train_extension_model, zero_extend)
from .forward import (Part, WaveData, restrict_wave_data, simulate_wave_data,
                      wave_trace)
from .geometry import (BoundaryGeometry, BoundarySplit, EllipseDomain,
                       build_boundary, detection_region_contains,
                       split_boundary)
from .inversion import kappa_even, reconstruct, ubp_filter
from .metrics import (boundary_time_inner, boundary_time_norm, e2_error,
                      grid_norm, subspace_distance)
from .oracle import backproject_point, exact_circular_mean, oracle_wave_field
from .phantoms import (EllipseIndicator, GridSpec, ImageField, Phantom,
                       SquareIndicator, WeightedSum, distance_to_support,
                       eval_phantom, phantom_from_dict, phantom_to_dict,
                       rasterize, training_partition)

__version__ = "0.1.0"
