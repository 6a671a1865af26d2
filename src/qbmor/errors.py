"""Exception and warning types shared by all qbmor modules.

Each exception section is headed by the module that raises its types. Every
type here is raised or caught somewhere else in the package; one that no
longer is gets deleted rather than kept for its tests.
"""


class QbmorError(Exception):
    """Base class for failures raised by this package."""


class NumericalError(QbmorError):
    """A numerical routine could not produce a trustworthy result."""


# raised by matrix_equations

class NonDiagonalizable(NumericalError):
    """Eigenvector matrix too ill-conditioned to trust the spectral factors."""


class NotStable(NumericalError):
    """Coefficient matrix has an eigenvalue with nonnegative real part."""


class SolverBreakdown(NumericalError):
    """A dense factorization failed inside a matrix-equation solver."""


class SingularShift(NumericalError):
    """A shifted operator A + lambda*E is numerically singular."""


class PairingViolation(NumericalError):
    """Complex data does not come in adjacent conjugate pairs."""


# raised by qb_core

class SingularGram(NumericalError):
    """W^T V (or W^T E V) is too ill-conditioned to invert."""


class NonPositiveGamma(QbmorError):
    """Rescaling factor must be finite and strictly positive."""


# raised by gramians_norms

class NoConvergence(NumericalError):
    """Fixed-point iteration exhausted its iteration budget."""


# raised by diagnostics

class TooLarge(QbmorError):
    """Problem dimensions exceed a guard meant for dense cross-checks."""


# raised by reduction_baselines

class RankDeficient(NumericalError):
    """Requested order exceeds the numerical rank of the Gramian product."""


# raised by benchmarks

class NewtonDivergence(NumericalError):
    """The implicit solver's step size underflowed.

    Its simplified Newton iteration or its error test kept rejecting trial
    steps until the step fell below the spacing of floating-point times.
    """


class NonFiniteState(NumericalError):
    """Integrator state left the representable range."""


# warning categories; these report degraded but usable results

class QbmorWarning(UserWarning):
    """Base warning category for this package."""


class IndefiniteGramian(QbmorWarning):
    """A Gramian has an eigenvalue below its positive semidefinite floor,
    -1e-10 times its largest magnitude. The Gramian is left as solved; its
    square-root factor keeps only the positive part. Only factored Gramians
    are checked: the linear and truncated ones; the Picard iterates of the
    quadratic Gramians are not factored."""


class MaxIterationsExceeded(QbmorWarning):
    """Iteration stopped at the budget; best iterate is returned."""


class DegradedDiagnostics(QbmorWarning):
    """The reduced model's own shifted solves were singular, so its
    optimality residual measures are NaN."""
