import rollmia


def test_every_export_resolves_once():
    names = rollmia.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(rollmia, name)]
    assert missing == []
