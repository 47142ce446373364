"""Graph-based Cheeger cut laboratory on sampled manifolds."""

from .errors import CheegerLabError
from .manifold import (Circle, CircleArc, FlatTorus2, PointCloud, Sphere2,
                       SphereCap, TorusStrip, get_manifold)
from .proximity_graph import (ProximityGraph, build_graph, cut_and_balance,
                              cut_size, gtv, objective)
from .cut_solvers import (CutResult, refine_local_search, solve_arc_sweep,
                          solve_exact, solve_pipeline, solve_spectral_sweep)
from .quadrature import QuadratureGrid, build_grid, grid_for_scale
from .nonlocal_tv import (ContinuumFunction, SmoothingKernel,
                          cheeger_functional_form, check_bias_inequality,
                          check_monotonicity, check_smoothing_chain,
                          indicator_function, smooth, surface_tension,
                          tv_local_smooth, tv_nonlocal)
from .consistency import (RateReport, TransportSurrogate, cut_l1_error,
                          fit_rate, fix_mass, interpolate, match_minimizer,
                          transport_assign, ustat_concentration)
from .harness import (ExperimentConfig, emit_plot_data, run_experiment,
                      validate_config)

__version__ = "0.1.0"
