import pathlib
import re

import elastica_fem

# one KKT path (saddle_solver.BandedKKT) and no dense fallback: no module
# factors or solves with a second method, or turns a sparse matrix dense
SECOND_PATHS = ("splu", "spsolve", "svdvals", "cho_factor", "toarray",
                "todense", "np.linalg.solve", "np.linalg.inv")


def test_every_public_name_resolves():
    namespace = {}
    exec("from elastica_fem import *", namespace)
    assert [n for n in elastica_fem.__all__ if n not in namespace] == []
    assert len(set(elastica_fem.__all__)) == len(elastica_fem.__all__)


def test_one_kkt_path_no_dense_fallback():
    pattern = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, SECOND_PATHS)))
    package = pathlib.Path(elastica_fem.__file__).parent
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(package.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []
