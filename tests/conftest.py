import contextlib
import warnings

# When a @given test fails, hypothesis's pytest plugin imports hypothesis.extra._patching
# to write a patch of the failing example. That module imports libcst, whose import of
# mypy_extensions raises a DeprecationWarning; under filterwarnings = ["error"] it is raised
# inside the report hook and ends the whole session with INTERNALERROR. Importing the module
# here, with warnings ignored for that import only, lets a failing test be reported as a
# failure. Without libcst the import fails and hypothesis writes no patch.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401
