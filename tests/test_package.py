"""The package's public surface: ``__all__`` names exactly what it exports."""
import types

import layersafe as ls


def test_all_matches_public_names():
    public = {
        name
        for name, obj in vars(ls).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(ls.__all__) == public
    assert len(ls.__all__) == len(set(ls.__all__))
