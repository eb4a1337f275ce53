"""Exact computational character theory for unitary groups of matrix-block limits.

Subpackages by topic:

- ``combinatorics``: partitions, signatures, conjugates, branching rows.
- ``exact``: Gaussian rationals, quarter-turn phases, common denominators.
- ``gtkernel``: Gelfand-Tsetlin pattern counts by a linear functional of the weight.
- ``symfunc``: Weyl dimensions, power-sum expansions, Littlewood-Richardson.
- ``ucharacters``: irreducible U(d) characters, tensor/restriction branching.
- ``moments``: weight distributions of one-parameter subgroups, HCIZ moments.
- ``afalgebra``: Bratteli diagrams, traces, K0 determinants, limit characters.
- ``poisson``: product-Poisson kernels and tail estimates.
- ``errors``: budget and broken-invariant exceptions, and the dimension budgets.
- ``cli``: scripting front end (``weylchar`` entry point).
"""

from weylchar.errors import BudgetExceeded

__version__ = "0.1.0"

__all__ = ["BudgetExceeded", "__version__"]
