"""The package's export list matches its namespace.

A name left in ``__all__`` after its definition is deleted makes
``from se23nav import *`` raise; a public name missing from it is silently
left out of the star import.
"""

from __future__ import annotations

import types

import se23nav


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(se23nav).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(se23nav.__all__) == len(set(se23nav.__all__))
    assert set(se23nav.__all__) == public
    namespace = {}
    exec("from se23nav import *", namespace)
    assert all(namespace[name] is getattr(se23nav, name) for name in se23nav.__all__)
