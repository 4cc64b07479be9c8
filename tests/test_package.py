"""The package surface: what `cmclab` exports is what it defines."""

import types

import cmclab


def test_all_is_the_public_surface():
    for name in cmclab.__all__:
        assert hasattr(cmclab, name), name
    public = [name for name, value in vars(cmclab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(cmclab.__all__) == sorted(public)
