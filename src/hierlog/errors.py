"""Exception hierarchy shared across the package."""


class HierlogError(Exception):
    """Base class for all package errors."""


class DuplicateKeyError(HierlogError):
    def __init__(self, key: str):
        super().__init__(f"duplicate template key: {key!r}")
        self.key = key


class LineParseError(HierlogError):
    """A line of a line-oriented input file (a catalog, raw records, sequences,
    triples, a report or a provider fixture) is malformed."""

    def __init__(self, path, line_number: int, reason: str):
        super().__init__(f"{path}: line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class PartitionError(HierlogError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"record {index}: {reason}")
        self.index = index
        self.reason = reason


class ExtractionError(HierlogError):
    """Topic extraction failed for one or more template keys."""

    def __init__(self, failed_keys, reason: str = "extraction failed"):
        self.failed_keys = list(failed_keys)
        super().__init__(f"{reason} for keys: {', '.join(self.failed_keys)}")


class TreeError(HierlogError):
    pass


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
