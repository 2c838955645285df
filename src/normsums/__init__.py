"""Sums of norms in imaginary quadratic fields Q(sqrt(-d)) with class
number 1, 2 or 3: which unary Hermitian lattices are sums of norms, the
minimum number of norms each needs, and the uniform bound g over a field.

The package namespace is derived, not listed, and looked up lazily (PEP
562), so `import normsums` loads none of its modules.  `normsums.X` is the
library module `X` (quadfield, classdata, repsearch, universality, verify)
if X names one.  Otherwise it is the first of those modules, in that order,
that holds X as a name it defines (its `__module__` is that module) or as
an upper-case constant; the module is imported then, and the value is kept
in the package from then on.  A name with a leading underscore, or one the
modules only import, such as `isqrt`, is no attribute of the package.  With
no list of names, `from normsums import *` binds only names already looked
up, none in a fresh process.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"
_MODULES = ("quadfield", "classdata", "repsearch", "universality", "verify")


def __getattr__(name):
    if not name.startswith("_"):
        if name in _MODULES:
            return _import_module(f"{__name__}.{name}")
        for module in (_import_module(f"{__name__}.{m}") for m in _MODULES):
            value = vars(module).get(name)
            if name in vars(module) and (name.isupper() or getattr(value, "__module__", None) == module.__name__):
                globals()[name] = value
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
