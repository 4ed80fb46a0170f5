"""The package's public surface: every exported name resolves, once."""

import lecam


def test_all_names_resolve_and_are_unique():
    assert len(lecam.__all__) == len(set(lecam.__all__))
    assert [name for name in lecam.__all__ if not hasattr(lecam, name)] == []
