"""Exception hierarchy for the XML toolkit."""


class XmlError(Exception):
    """Base class for all errors raised by :mod:`repro.xmlkit`."""


class XmlParseError(XmlError):
    """Raised when a document cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position so callers can produce precise diagnostics.
    """

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class XmlStructureError(XmlError):
    """Raised when a tree operation would corrupt document structure.

    Examples: attaching a node that already has a parent, removing a
    child from an element that does not contain it, or creating an
    element with an invalid name.
    """
