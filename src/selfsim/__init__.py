"""Self-similar groupoid actions on finite directed graphs: exact deciders
for the combinatorial conditions driving the structure of the associated
algebras, the inverse semigroup of triples, germ calculus over eventually
periodic boundary points, and circle-valued twists.
"""

from .graphs import DirectedGraph, Edge, GraphError, Path, UsageError
from .groupoids import (BehavioralModel, ExplicitGroupoid, GroupoidError,
                        RequiresExplicitError, cyclic_group_table,
                        from_group_action, group_bundle)
from .actions import (ActionError, BoundaryPoint, FixingAutomaton,
                      SelfSimilarAction, act_point, boundary_point,
                      faithful, fixes_all_paths, fixes_point,
                      kernel_elements, minimal_strongly_fixed, nucleus,
                      orbit_classes, pseudo_free, strongly_fixed_prefix,
                      tight_kernel_elements, tightly_faithful)
from .verdicts import Verdict
from .conditions import (check_con, check_contracting, check_cyc, check_evr,
                         check_fin, check_min, check_rec, check_sla,
                         invariant_closure, run_report)
from .semigroup import ZERO, SemigroupError, Triple
from .germs import (Germ, GermError, classify, germ_eq, germ_inv, germ_mul,
                    hum_for_point, in_core, singular_decompositions, xbar)
from .twists import Twist, TwistError, extend_bowtie, omega, validate_twist
from .systems import (System, SystemLoadError, fixture_names, load_fixture,
                      load_system, save_system)

__version__ = "0.1.0"
