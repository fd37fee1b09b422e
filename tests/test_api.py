"""The package's public surface: what ``import semse`` exports and what it costs.

``semse`` exports exactly the names the README's Library use section
documents, and that section's example runs as written. The defaults the
README's Scenario files section shows are the ones ``ScenarioConfig`` has,
for every scenario key.
"""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path
from types import ModuleType

import pytest

import semse
from semse.harness import _DEFAULT, ScenarioConfig, load_scenario

ROOT = Path(__file__).resolve().parent.parent


def library_use() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_readme_scenario_defaults_are_the_real_defaults(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "defaults.txt"
    path.write_text(block, encoding="utf-8")
    assert load_scenario(path) == ScenarioConfig()
    # every scenario key is shown, the sweep keys in comments
    assert sorted(re.findall(r"^(?:# )?(\w+) =", block, re.M)) == sorted(_DEFAULT)


# runs the block seeding and match_drops as a user would, so also at the
# oldest supported numpy
@pytest.mark.numpy_floor
def test_library_use_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", library_use(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_every_export_is_documented():
    exported = [
        name for name, value in vars(semse).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert exported
    section = library_use()
    assert [name for name in exported if not re.search(rf"\b{name}\b", section)] == []


def test_cli_import_leaves_hashlib_unloaded():
    # only `semse tables --check` hashes anything; numpy alone does not load it
    probe = "import sys, numpy, semse.cli; print('hashlib' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    assert out.strip() == "False"


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each annotation in its own module, so an
    # annotation naming a type the module never imports raises NameError
    checked = 0
    for info in pkgutil.walk_packages(semse.__path__, "semse."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).values() if inspect.isclass(value) else ()
            for obj in (value, *members):
                obj = getattr(obj, "__func__", getattr(obj, "fget", obj))
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    typing.get_type_hints(obj)
                    checked += 1
    assert checked > 50
