"""Base class of the package's runtime failures.

A solver or simulation that cannot produce a result raises a subclass of
:class:`MvreinsError`; the CLI prints it as one ``error: ...`` line with exit
code 1.  Bad inputs raise ``ValueError`` subclasses instead.
"""


class MvreinsError(RuntimeError):
    """A solve or simulation failed on a valid model (degenerate, diverged, ...)."""
