"""Exception types shared across the toolkit."""

from __future__ import annotations


class WikiCoverageError(Exception):
    """Base class for every error raised by this package."""


class DumpTruncatedError(WikiCoverageError):
    """The entity dump ended before its closing ``]`` line."""


class SlimStoreError(WikiCoverageError):
    """Base class for slim-store read/write failures."""


class SlimStoreVersionError(SlimStoreError):
    """The store file carries a format version this build does not know."""


class SlimStoreCorruptionError(SlimStoreError):
    """The store file violates its own header or record grammar."""


class SlimStoreMismatchError(SlimStoreError):
    """The store was kept without a property that the attribution rules need."""


class SlimStoreWriteError(SlimStoreError):
    """Writing a store failed partway through.

    ``records_written`` counts the records flushed before the failure, so a
    caller can report or clean up the partial file.
    """

    def __init__(self, message: str, records_written: int):
        super().__init__(message)
        self.records_written = records_written


class DuplicateItemError(WikiCoverageError):
    """The same item id appeared twice in one entity stream."""


class RulesError(WikiCoverageError):
    """An attribution rules file could not be parsed."""


class ReadershipTableError(WikiCoverageError):
    """The readership CSV is malformed (columns, duplicates, negatives)."""


class NoReadershipError(WikiCoverageError):
    """A language has no readership rows, so no primary country exists."""


class UndefinedMetricError(WikiCoverageError):
    """A metric's denominator is zero; the value is undefined, not NaN."""


class IncompleteAttributionError(WikiCoverageError):
    """The attribution TSV does not list exactly the store's items, in store order."""


class TitleConflictError(WikiCoverageError):
    """Two distinct items claim the same (language, title) sitelink."""


class ConfigError(WikiCoverageError):
    """A pipeline run configuration is invalid or references missing files."""


class PipelineStageError(WikiCoverageError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
