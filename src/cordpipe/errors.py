"""Exception hierarchy shared across the toolkit.

Two families matter for exit-code mapping in the CLI: ``ValidationError``
(bad values, incompatible shapes, degenerate inputs) and ``FormatError``
(malformed byte streams and files).
"""


class CordpipeError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CordpipeError):
    """Input or configuration violates a documented precondition."""


class DimensionError(ValidationError):
    """Volume or patch dimensions are invalid or incompatible."""


class ConfigError(ValidationError):
    """A configuration value is out of its allowed range."""


class DegenerateHistogramError(ValidationError):
    """Histogram admits no valid split (e.g. constant volume in Otsu)."""


class DegenerateRangeError(ValidationError):
    """Percentile window collapsed to a single value."""


class ZeroVarianceError(ValidationError):
    """Normalization scope has no intensity variance."""


class TransformError(ValidationError):
    """Spatial transform is unusable (non-invertible matrix)."""


class FormatError(CordpipeError):
    """A byte stream does not conform to its file format. ``path`` names
    the file the stream came from, when the code that opened it knows."""

    def __init__(self, message: str = "", path: str | None = None):
        super().__init__(message)
        self.path = path


class BadMagicError(FormatError):
    """Stream does not carry a recognized NIfTI-1 magic."""


class UnsupportedDatatypeError(FormatError):
    """NIfTI datatype code outside the supported set."""


class TruncatedPayloadError(FormatError):
    """Voxel payload shorter than the header promises."""


class LabelRangeError(FormatError):
    """Label file contains a class id outside the known classes."""


class SidecarError(FormatError):
    """Sparse-annotation sidecar is malformed."""
