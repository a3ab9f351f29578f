import wikicoverage


def test_every_exported_name_resolves():
    missing = [name for name in wikicoverage.__all__ if not hasattr(wikicoverage, name)]
    assert missing == []
