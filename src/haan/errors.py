"""Exception hierarchy shared across the package.

Search-style misses (no separator found within a size cap, no vertex cover
within budget) are returned as ``None`` values, not raised; only contract
violations and unsatisfiable solve requests raise.
"""


class HaanError(Exception):
    """Base class for all package errors."""


class InvalidInstance(HaanError):
    """Instance data violates an invariant (range, self-loop, duplicate)."""


class InvalidAllocation(HaanError):
    """Allocation is non-injective, out of range, or of the wrong length."""


class InstanceInfeasible(HaanError):
    """Fewer houses than agents: no injective allocation exists."""


class WrongSolver(HaanError):
    """Solver precondition on the instance shape does not hold."""


class UnknownAlgorithm(HaanError):
    """Dispatcher received an algorithm label it does not know."""


class BudgetExceeded(HaanError):
    """The configured guess limit cannot accommodate the guess space."""


class NoFeasibleAllocation(HaanError):
    """Annotated instance admits no allocation respecting the feasibility sets."""


class SeparatorNotFound(HaanError):
    """No balanced separator within the explicitly configured size cap."""


class SolveTimeout(HaanError):
    """Cooperative wall-clock deadline hit inside a guess loop."""


class NotACover(HaanError):
    """A user-supplied vertex set misses at least one edge."""


class GeneratorError(HaanError):
    """Base class for reduction-generator precondition failures."""


class NotRegular(GeneratorError):
    """Source graph is not regular."""


class Not3Regular(GeneratorError):
    """Source graph is not 3-regular."""


class BadK(GeneratorError):
    """Clique/separator size parameter out of the generator's range."""


class BadT(GeneratorError):
    """Padding multiplicity parameter out of the generator's range."""


class NotAClique(GeneratorError):
    """A claimed clique is not a clique of the required size."""


class BadPartition(GeneratorError):
    """A claimed separator triple violates the required sizes or adjacency."""


class FormatError(HaanError):
    """Instance/result file cannot be parsed."""
