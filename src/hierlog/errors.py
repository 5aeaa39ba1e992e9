"""Exception hierarchy shared across the package."""


class HierlogError(Exception):
    """Base class for all package errors."""


class IngestError(HierlogError):
    pass


class DuplicateKeyError(IngestError):
    def __init__(self, key: str):
        super().__init__(f"duplicate template key: {key!r}")
        self.key = key


class LineParseError(IngestError):
    """A line of an ingest input is not a valid record of its kind."""

    kind = "input"

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"{self.kind} parse error at line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class CatalogParseError(LineParseError):
    kind = "catalog"


class SequenceParseError(LineParseError):
    kind = "sequence file"


class RawRecordParseError(LineParseError):
    kind = "raw log"


class JsonLinesError(HierlogError):
    """A line of a JSON-lines input file (triples, report, provider fixture) is malformed."""

    def __init__(self, path, line_number: int, reason: str):
        super().__init__(f"{path}: line {line_number}: {reason}")
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
