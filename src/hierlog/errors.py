"""Exception hierarchy shared across the package."""


class HierlogError(Exception):
    """Base class for all package errors."""


class IngestError(HierlogError):
    pass


class DuplicateKeyError(IngestError):
    def __init__(self, key: str):
        super().__init__(f"duplicate template key: {key!r}")
        self.key = key


class CatalogParseError(IngestError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"catalog parse error at line {line_number}: {reason}")
        self.line_number = line_number


class SequenceParseError(IngestError):
    """A line of a sequence file is not a valid sequence record."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"sequence file parse error at line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class RawRecordParseError(IngestError):
    """A line of a raw log file is not a valid raw record."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"raw log parse error at line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class PartitionError(IngestError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"record {index}: {reason}")
        self.index = index


class ExtractionError(HierlogError):
    """Topic extraction failed for one or more template keys."""

    def __init__(self, failed_keys, reason: str = "extraction failed"):
        self.failed_keys = list(failed_keys)
        super().__init__(f"{reason} for keys: {', '.join(self.failed_keys)}")


class TreeError(HierlogError):
    pass


class LookupError_(TreeError):
    """Unknown key or level during tree lookup."""

    def __init__(self, key: str, level: str | None = None):
        at = f" at level {level!r}" if level else ""
        super().__init__(f"unknown log key {key!r}{at}")
        self.key = key
        self.level = level


class DecompositionError(HierlogError):
    pass


class KnowledgeBaseError(HierlogError):
    pass


class FormatError(KnowledgeBaseError):
    """Persisted file is missing, truncated, or has a wrong version tag."""


class ProviderError(HierlogError):
    """LLM/embedding provider failed after exhausting retries."""


class StageError(HierlogError):
    """Pipeline stage failure, tagged with the stage name."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"[{stage}] {reason}")
        self.stage = stage


class ConfigError(HierlogError):
    pass
