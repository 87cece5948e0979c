import elastica_fem


def test_every_public_name_resolves():
    namespace = {}
    exec("from elastica_fem import *", namespace)
    assert [n for n in elastica_fem.__all__ if n not in namespace] == []
    assert len(set(elastica_fem.__all__)) == len(elastica_fem.__all__)
