import lintseq


def test_every_export_resolves():
    missing = [name for name in lintseq.__all__ if not hasattr(lintseq, name)]
    assert missing == []
