"""Exception types shared across the package.

DomainError covers everything that is a property of the inputs (bad geometry,
not enough data, degenerate patterns); the CLI maps it to exit code 1, while
I/O and parse failures map to exit code 2.
"""


class DomainError(Exception):
    def __reduce__(self):
        # pickle (a drive run in a worker process sends its error back that
        # way) rebuilds an exception as cls(*args); the subclasses whose
        # __init__ takes other arguments are rebuilt from args and
        # attributes instead, without calling __init__
        return type(self).__new__, (type(self), *self.args), self.__dict__


class NonPositiveParameter(DomainError):
    def __init__(self, name, value):
        self.name = name
        self.value = value
        super().__init__(f"parameter {name!r} must be positive, got {value!r}")


class Unreachable(DomainError):
    def __init__(self, crank_angle_rad, detail=""):
        self.crank_angle = crank_angle_rad
        import math

        deg = math.degrees(crank_angle_rad)
        msg = f"pedal unreachable at crank angle {deg:.1f} deg"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonFiniteState(DomainError):
    pass


class ShapeMismatch(DomainError):
    pass


class InsufficientData(DomainError):
    pass


class NonConvergentPrevAction(DomainError):
    pass


class DegenerateInterval(DomainError):
    pass


class InconsistentConfig(DomainError):
    pass


class InvalidArgument(DomainError):
    pass
