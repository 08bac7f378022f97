"""Biclique factorisation series on multipartite graphs.

The library iterates the weak, factor and clean factorisation operators
starting from a graph's vertex/clique incidence bipartite graph (or from
an arbitrary bipartite graph), and checks the structure of the terminated
clean decomposition: its vertices correspond one-to-one to the chains of
the inclusion order on the non-simple intersections of maximal cliques.

Each module's ``__all__`` declares its public names; the package exports
their union.
"""

from .cli import *
from .cliques import *
from .errors import *
from .factorisation import *
from .graphs import *
from .io import *
from .oracle import *
from .series import *

__version__ = "0.1.0"

__all__ = (
    cli.__all__
    + cliques.__all__
    + errors.__all__
    + factorisation.__all__
    + graphs.__all__
    + io.__all__
    + oracle.__all__
    + series.__all__
)
