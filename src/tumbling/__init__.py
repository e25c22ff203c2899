"""Tumbling-block lattice graphs and exact domination-type analysis.

Construction of the finite families and toroidal quotients of the infinite
tumbling-block (rhombille) lattice, provably-optimal solvers for seven
domination-type parameters, exact-rational share analysis, periodic-pattern
density search, and non-Hamiltonicity certificates.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from ._backend import backend_name
from .density import (
    DensityRecord,
    NoValidQuotientError,
    density_sweep,
    lift_check,
    min_density,
    perfect_open_pattern,
    required_radius,
    search,
)
from .graph import FiniteGraph, NotBipartiteError, bipartition
from .hamilton import (
    CutCertificate,
    bipartite_balance,
    find_hamiltonian_cycle,
    hex_ball_cut_set,
    verify_cut,
)
from .lattice import (
    FamilyKind,
    FamilySpec,
    VClass,
    VertexAddr,
    block_graph,
    build_family,
    closed_form_counts,
    tb_neighbors,
    u,
    v,
    w,
)
from .quotient import (
    DegenerateQuotientError,
    LatticeQuotient,
    build_quotient,
    enumerate_hnf,
    validate_quotient,
)
from .shares import (
    ShareReport,
    check_ld_pn_bound,
    check_open_share_cap,
    open_share,
    private_neighbors,
    share,
    share_report,
)
from .solvers import (
    InfeasibleError,
    ParamKind,
    SolveResult,
    SolveStats,
    brute_force,
    closed_twins,
    has_efficient_dominating,
    has_efficient_open_dominating,
    is_dominating,
    is_ic_set,
    is_ld_set,
    is_old_set,
    is_open_dominating,
    open_twins,
    solve,
    verify_witness,
)

# the imported API names, not the submodules that importing them binds here
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
