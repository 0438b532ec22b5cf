"""Exact independent-set counting and container-method tooling for Abelian
Cayley graphs."""

__version__ = "0.1.0"

from .groups import (  # noqa: F401
    GeneratorSet,
    GroupSpec,
    enumerate_abelian_groups,
    make_group,
    parse_group,
)
from .graphs import (  # noqa: F401
    CayleyGraph,
    ClosedSetRecord,
    Graph,
    build_cayley,
    closure,
    times_k2,
)
from .counting import (  # noqa: F401
    bipartite_bound_sum,
    cluster_bound,
    container_table,
    count_independent_sets,
    count_independent_sets_bruteforce,
    enumerate_small_2linked_closed,
    lucas_number,
)
