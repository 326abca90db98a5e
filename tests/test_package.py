import importlib
import pkgutil

import cactusops


def test_every_exported_name_resolves():
    # __main__ is skipped: importing it runs the command line.
    names = ["cactusops"] + [
        f"cactusops.{info.name}"
        for info in pkgutil.iter_modules(cactusops.__path__)
        if info.name != "__main__"
    ]
    for module_name in names:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"
