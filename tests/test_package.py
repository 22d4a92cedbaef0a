import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import gridground
from gridground import bench, cli, simulator
from gridground.simulator import load_yaml

SUBMODULES = ["bench", "classical", "errors", "gridmap", "grounded", "scorers", "simulator", "translator"]

PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import gridground; "
    "print(*sorted(m for m in sys.modules if m.startswith('gridground.'))); "
    "print(*sorted(n for n in vars(gridground) if not n.startswith('_')))"
)


def test_bare_import_loads_the_eight_submodules_and_exports_no_names():
    src = Path(gridground.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(src)], capture_output=True, text=True, check=True
    )
    loaded, public = proc.stdout.splitlines()
    assert loaded.split() == [f"gridground.{name}" for name in SUBMODULES]
    assert public.split() == SUBMODULES


# what the remote transport loads only when a live request is made, and yaml only when a file is parsed
LAZY = ["requests", "urllib3", "charset_normalizer", "urllib.request", "http.client", "ssl", "yaml"]


def test_bare_import_loads_no_http_stack():
    src = Path(gridground.__file__).resolve().parent.parent
    probe = f"import sys; sys.path.insert(0, sys.argv[1]); import gridground; print(*[m for m in {LAZY!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


# Reading the padded store or its cells view, or building a free_mask index by
# hand (a stride, width + 2, the private rows view or the mask's byte table),
# belongs in gridmap alone; other modules go through is_free/cell/rows and
# flat_index/flat_offsets/flat_pose/strip_pad.
LAYOUT_READS = re.compile(r"\._padded\b|\.cells\b|\bstride\b|width \+ 2|\._rows\b|_FREE_BYTE")


def test_only_gridmap_reads_the_cell_layout():
    src = Path(gridground.__file__).resolve().parent
    readers = sorted(
        (p.name, m.group()) for p in src.glob("*.py") if p.name != "gridmap.py"
        for m in LAYOUT_READS.finditer(p.read_text())
    )
    assert readers == []
    assert "._padded" in LAYOUT_READS.findall((src / "gridmap.py").read_text())  # the guard names the store


# The YAML loaders read their fields through simulator.read_field; a type check
# or a coercion written into one of them is a second way of doing that job.
HAND_CHECKS = re.compile(r"\b(?:isinstance|int|float)\(")


def test_loaders_leave_field_types_to_the_reader():
    loaders = [simulator.parse_scenario, bench.load_suite, cli._endpoint_config]
    checks = [(f.__name__, m.group()) for f in loaders for m in HAND_CHECKS.finditer(inspect.getsource(f))]
    assert checks == []
    assert HAND_CHECKS.search(inspect.getsource(simulator.read_field))  # the guard matches the reader's own check


@pytest.mark.parametrize("with_libyaml", [True, False])
def test_yaml_parses_through_libyaml_when_pyyaml_has_it(monkeypatch, with_libyaml):
    if with_libyaml and not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    loaders = []
    real_load = yaml.load
    monkeypatch.setattr(yaml, "__with_libyaml__", with_libyaml)
    monkeypatch.setattr(yaml, "load", lambda text, Loader: loaders.append(Loader) or real_load(text, Loader))
    assert load_yaml("a: [1, 2]\n") == {"a": [1, 2]}
    assert loaders == [yaml.CSafeLoader if with_libyaml else yaml.SafeLoader]


def test_libyaml_documents_equal_pyyaml_on_the_bundled_files():
    data = Path(gridground.__file__).resolve().parent / "data"
    texts = [p.read_text(encoding="utf-8") for p in sorted(data.glob("*.yaml"))]
    assert len(texts) == 4
    assert [load_yaml(t) for t in texts] == [yaml.safe_load(t) for t in texts]
