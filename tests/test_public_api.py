"""The documented public surface: the README's Python example runs,
every exported name resolves, and the package exports exactly its
modules' ``__all__`` names."""

import importlib
import pkgutil
import re
from pathlib import Path

import corcomp

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = [
    importlib.import_module(f"corcomp.{info.name}")
    for info in pkgutil.iter_modules(corcomp.__path__)
]
EXPORTING = [module for module in SUBMODULES if hasattr(module, "__all__")]


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_every_exported_name_resolves():
    checked = 0
    for module in [corcomp, *SUBMODULES]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked > len(corcomp.__all__)


def test_package_reexports_each_module_surface():
    for module in EXPORTING:
        for name in module.__all__:
            assert getattr(corcomp, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_no_name_is_exported_by_two_modules():
    owners: dict[str, str] = {}
    for module in EXPORTING:
        for name in module.__all__:
            assert name not in owners, f"{name} is in {owners[name]}.__all__ and {module.__name__}.__all__"
            owners[name] = module.__name__
    assert sorted(owners) == sorted(set(corcomp.__all__) - {"__version__"})
