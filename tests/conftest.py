"""Test-session setup shared by every test module."""

import warnings

# Hypothesis imports libcst to explain a falsified property, and that import
# raises mypy_extensions' DeprecationWarning. Under filterwarnings = error it
# would end the whole session with an INTERNALERROR, hiding every later
# test's result. Import it once here with only that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # an optional dependency of hypothesis
        pass
