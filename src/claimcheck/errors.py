"""Exception types shared across the package."""


class ClaimCheckError(Exception):
    """Base class for all package errors."""


class ConfigError(ClaimCheckError):
    """Bad or missing configuration."""


class IngestError(ClaimCheckError):
    """Corpus file unreadable or structurally invalid."""


class LabelMappingError(ClaimCheckError):
    """Raw veracity label outside the documented mapping table."""


class EncodeError(ClaimCheckError):
    """Text cannot be encoded, or a backend violated the embedding contract."""


class SummarizeError(ClaimCheckError):
    """Summarizer input or output contract violation."""


class SearchProviderError(ClaimCheckError):
    """Base class for evidence-search failures."""


class RetryableSearchError(SearchProviderError):
    """Transient provider failure: unreachable endpoint, quota exhaustion."""


class FatalSearchError(SearchProviderError):
    """Permanent provider failure: malformed response, bad request."""


class PipelineError(ClaimCheckError):
    """Batch-level pipeline failure."""


# Errors that fail one article's record; anything else is a bug and propagates.
INPUT_ERRORS = (ClaimCheckError, ValueError)


def unwrap(result):
    """Return a batch step's entry for one item, or raise it if it is the
    input error that stands in for that item's result."""
    if isinstance(result, Exception):
        raise result
    return result
