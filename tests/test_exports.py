"""The package's public surface: each name it re-exports is a listed,
existing public name of the module that defines it."""

import ast
import importlib
import pathlib

import specfilt

MODULES = ("_gauss", "engine", "filters", "lineshapes", "metrics")

# public names removed from the package; nothing may re-export them again
REMOVED = [("metrics", "mse_with_noise"), ("metrics", "MseBreakdown"),
           ("engine", "dft_inverse"), ("lineshapes", "lorentzian_ds"),
           ("lineshapes", "add_white_noise"), ("engine", "RsCoefficients"),
           ("engine", "dft_forward")]


def _reexports():
    """(module, name) for each name specfilt/__init__.py imports from a submodule."""
    tree = ast.parse(pathlib.Path(specfilt.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


def _found(pairs):
    """The (module, name) pairs that the module defines and lists in __all__."""
    found = []
    for module, name in pairs:
        mod = importlib.import_module(f"specfilt.{module}")
        if hasattr(mod, name) and name in mod.__all__:
            found.append((module, name))
    return found


def test_reexports_are_listed_public_names():
    pairs = _reexports()
    assert len(pairs) > 40
    assert _found(pairs) == pairs
    assert all(hasattr(specfilt, name) for _, name in pairs)


def test_every_listed_name_exists():
    listed = [(module, name) for module in MODULES
              for name in importlib.import_module(f"specfilt.{module}").__all__]
    assert _found(listed) == listed


def test_removed_names_are_gone():
    assert _found(REMOVED) == []
    assert not any(hasattr(specfilt, name) for _, name in REMOVED)
