"""The package's one exception type. Bad input is a plain ``ValueError``
(exit 2 on the command line); every other failure the package detects is
numerical, a ``XilabError`` (exit 3), and its message says which."""


class XilabError(Exception):
    """A numerical failure: a sum, quadrature or root iteration that missed
    its tolerance, a model outside its domain, too few roots or zeros."""
