import u4codes as u


def test_every_public_name_resolves():
    assert len(set(u.__all__)) == len(u.__all__)
    for name in u.__all__:
        assert getattr(u, name) is not None, name
