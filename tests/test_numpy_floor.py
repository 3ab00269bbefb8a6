"""The package source uses no name that NumPy 1.24 lacks.

``pyproject.toml`` declares ``numpy>=1.24``, yet a suite run under NumPy 2
passes with a NumPy-2-only name in the source.  The names below arrived in
NumPy 2.0 (``np.bool`` came back there as an alias of ``np.bool_``, and
``np.concat`` is new as one of ``np.concatenate``), so this scan stands in
for a run on the floor version.
"""

import re
from pathlib import Path

NUMPY2_ONLY = re.compile(r"\.mT\b|\bmatrix_transpose\b|\bvecdot\b|\bnp\.astype\b|\btrapezoid\b"
                         r"|\bnp\.concat\b|\bnp\.bool\b")
SOURCE = Path(__file__).resolve().parents[1] / "src" / "spanova"


def test_source_uses_no_numpy2_only_name():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in files
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if NUMPY2_ONLY.search(line)]
    assert not found, "NumPy 2-only names under the numpy>=1.24 floor:\n" + "\n".join(found)


def test_the_scan_finds_each_name_and_spares_its_numpy1_spelling():
    for line in ("a.mT", "np.linalg.matrix_transpose(a)", "np.vecdot(a, b)", "np.astype(a, int)",
                 "np.trapezoid(y)", "np.concat([a, b])", "x.astype(np.bool)"):
        assert NUMPY2_ONLY.search(line), line
    for line in ("a.T", "np.concatenate([a, b])", "np.bool_", "a.astype(bool)", "np.trapz(y)"):
        assert not NUMPY2_ONLY.search(line), line
