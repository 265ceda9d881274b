"""Exception types shared across the package."""


class LaddynError(Exception):
    """Base class for all package errors."""


class ValidationError(LaddynError, ValueError):
    """Malformed or out-of-contract input (bad shape, non-Hermitian, bad site index...)."""


class DomainError(LaddynError, ValueError):
    """Input outside the domain of a closed-form expression (D <= 0, or D*D not normal).

    The numeric propagator handles D = 0; callers hitting this there should
    route through the dynamics module instead.  The CLI reports it as a
    usage error.
    """


class SectorLeakageError(LaddynError, RuntimeError):
    """State has weight outside the one-excitation sector beyond tolerance.

    Signals a wrong Hamiltonian or a corrupted state; carries the leaked weight.
    """

    def __init__(self, leaked: float, tol: float):
        self.leaked = leaked
        self.tol = tol
        super().__init__(
            f"weight outside the one-excitation sector is {leaked:.3e} "
            f"(tolerance {tol:.3e})"
        )


class NumericalFailureError(LaddynError, RuntimeError):
    """A numerical result violates a bound that should hold to roundoff."""
