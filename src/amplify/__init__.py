"""Classification of amplified graph algebras by combinatorial reduction.

Graded (gauge-equivariant) isomorphism classes of amplified graph algebras
reduce to plain digraph isomorphism, and stable classes to isomorphism of
amplified transitive closures.  This package implements the reduction end to
end: graph presentations, exact-length reachability, the level-graded cover
and its principal hereditary sets, reconstruction and normalization, and the
verdict engines, plus a CLI (``amplify``).
"""

from .classification import (
    LatticeIsoData,
    Lemma23Report,
    Verdict,
    VHSpec,
    check_lemma23,
    decide_gauge_iso,
    decide_stable_iso,
    normalize_lattice_iso,
    reconstruct,
    search_bounded_iso,
    validate_lattice_iso,
)
from .graphs import (
    AmplifiedGraph,
    ComponentPartition,
    ParseError,
    amplified_transitive_closure,
    apply_permutation,
    induced_subgraph,
    parse_graph,
    t_move,
    t_move_fixpoint,
    to_text,
    weakly_connected_components,
)
from .isomorph import canonical_form, canonical_permutation, digraph_isomorphism
from .kernels import BACKEND
from .reachability import ReachabilityTable, build_reachability, exact_reach, reaches
from .skewlattice import (
    FiniteHereditarySet,
    PrincipalHereditary,
    SkewWindow,
    enumerate_hereditary,
    principal_contains,
    principal_set_members,
    skew_window,
    translate,
    unique_predecessor_elements,
)

__version__ = "0.1.0"
