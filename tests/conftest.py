import pytest

# When a hypothesis test fails, the plugin's report hook imports libcst to
# suggest a patch, and libcst's import emits this DeprecationWarning from
# mypy_extensions.  Under ``-W error`` it would end the run in INTERNALERROR
# instead of printing the falsifying example.  A filterwarnings mark is applied
# after the command line's ``-W`` filters, so this one warning, named by message
# and by the module it is attributed to, is the only one let through.
_PATCH_IMPORT_WARNING = ("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:"
                         r"libcst\.metadata\.type_inference_provider")


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(_PATCH_IMPORT_WARNING))
