from . import coerce, regexes, severity, templates, timeparse, tokens  # noqa: F401
from . import encodings  # noqa: F401
