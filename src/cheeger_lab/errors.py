"""Exception types shared across the package."""


class CheegerLabError(Exception):
    pass


class SizeLimitExceeded(CheegerLabError):
    pass


class WrongManifold(CheegerLabError):
    pass


class EigenNotConverged(CheegerLabError):
    pass


class UnsupportedDimension(CheegerLabError):
    pass


class ResolutionTooCoarse(CheegerLabError):
    pass


class DegenerateFunction(CheegerLabError):
    pass


class BandwidthTooSmall(CheegerLabError):
    pass


class InfeasibleMass(CheegerLabError):
    pass


class InsufficientData(CheegerLabError):
    pass


class MissingColumns(CheegerLabError):
    pass


class ConfigError(CheegerLabError):
    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
