"""Full-degree spanning trees on random regular graphs.

Library layout:

* ``fdst.graphs`` — configuration-model pairings, multigraph projection,
  rejection sampling of pairings with simple projections, graph file io.
* ``fdst.greedy`` — the greedy full-degree-tree algorithm: one loop over a
  pairing serves graph mode (a pairing with a simple projection) and lazy mode (a
  uniform pairing drawn before the run, by deferred decisions the lazily
  revealed model of the drift system; Wormald 1999, section 2), with
  per-step trajectories.
* ``fdst.exact`` — exhaustive oracles for the full-degree number phi, the
  max-leaf number lambda, and the connected domination number gamma_C on
  small graphs, plus the extremal product constructions.
* ``fdst.ode`` — the scaled drift system and the two-phase integrator that
  reproduces the asymptotic constants.
* ``fdst.harness`` / ``fdst.cli`` — reproducible experiments and artifacts.
"""

from .exact import (ExactResult, check_propositions, construct_grid_torus,
                    construct_prism_torus, exact_result, lambda_gamma_exact,
                    phi_exact_stars, phi_exact_trees, spanning_tree_extrema)
from .graphs import (MultiGraph, Pairing, RegularGraph, SimpleGraph,
                     graph_from_edges, is_connected, is_simple, project,
                     read_graph, sample_pairing, sample_simple_pairing,
                     sample_simple_regular, write_graph, write_pairing)
from .greedy import (SpanningTreeResult, StepOutcome, Trajectory, run_lazy,
                     run_on_graph, run_on_pairing)
from .ode import (TrajectoryResult, analytic_phase1, blend_phase2, deriv_op1,
                  deriv_op2, initial_state, integrate_two_phase)

__version__ = "0.1.0"
