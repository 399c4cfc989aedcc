"""Set-up shared by every test module."""

import warnings

# When a property test fails, hypothesis's pytest plugin imports its patch
# writer, hypothesis.extra._patching, which imports libcst where it is
# installed. Some libcst releases warn with a DeprecationWarning from
# mypy_extensions on import; under `-W error` that warning escapes the
# plugin's report hook, and pytest ends the whole session with INTERNALERROR
# before it prints the falsifying example or runs the remaining tests.
# Importing the patch writer once here, with DeprecationWarning ignored for
# this import only, lets a failing property test report like any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
