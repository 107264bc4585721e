import nagumo_atlas


def test_every_exported_name_resolves():
    for name in nagumo_atlas.__all__:
        assert getattr(nagumo_atlas, name) is not None
