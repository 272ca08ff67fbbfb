"""repro — reproduction of "Density-Dependent Graph Orientation and Coloring in Scalable MPC".

The package is organised as:

* :mod:`repro.graph` — graph substrate (graphs, generators, density estimation,
  orientation / H-partition / coloring value objects).
* :mod:`repro.mpc` — simulated MPC cluster with round and memory accounting.
* :mod:`repro.local` — LOCAL-model subroutines.
* :mod:`repro.core` — the paper's algorithms (Theorems 1.1 and 1.2 and all the
  machinery of Sections 2–4).
* :mod:`repro.baselines` — prior-work baselines used for comparison.
* :mod:`repro.analysis` — validators, statistics and report generation.
* :mod:`repro.stream` — streaming subsystem: dynamic graphs under edge churn
  with incremental orientation/coloring maintenance.
* :mod:`repro.engine` — host fan-out of independent tasks (serial or process
  workers) under a worker-count determinism contract.
* :mod:`repro.experiments` — workloads and the experiment harness behind the
  benchmark suite.

Quickstart::

    from repro import generators, orient, color

    graph = generators.union_of_random_forests(2048, arboricity=4, seed=0)
    orientation_run = orient(graph, seed=0)
    coloring_run = color(graph, seed=0)
    print(orientation_run.max_outdegree, coloring_run.num_colors)
"""

from repro.core.coloring import ColoringRun, color, coloring_palette_bound
from repro.core.coreness import CorenessResult, approximate_coreness, exact_coreness
from repro.core.full_assignment import complete_layer_assignment
from repro.core.orientation import OrientationRun, orient, orientation_outdegree_bound
from repro.graph import generators
from repro.graph.coloring import Coloring
from repro.graph.graph import Graph
from repro.graph.hpartition import HPartition
from repro.graph.orientation import Orientation
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.stream.dynamic_graph import DynamicGraph
from repro.stream.service import StreamingService
from repro.stream.updates import UpdateBatch

__version__ = "1.1.0"

__all__ = [
    "Coloring",
    "ColoringRun",
    "CorenessResult",
    "DynamicGraph",
    "Graph",
    "HPartition",
    "MPCCluster",
    "MPCConfig",
    "Orientation",
    "OrientationRun",
    "StreamingService",
    "UpdateBatch",
    "__version__",
    "approximate_coreness",
    "color",
    "coloring_palette_bound",
    "complete_layer_assignment",
    "exact_coreness",
    "generators",
    "orient",
    "orientation_outdegree_bound",
]
