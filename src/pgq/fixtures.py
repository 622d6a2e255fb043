"""Bundled data files and validating loaders.

Every fixture is a JSON document under pgq/data/ carrying a provenance note;
loaders run the owning module's validator so a corrupt fixture fails at load
time, not inside a computation.
"""

from __future__ import annotations

import json
from importlib.resources import files

from .brauer import BrauerTreeSpec, GroupArithmeticProfile, validate_tree
from .helpmethod import CharacterTableSlice, InequalityRowsFixture


def data_dir():
    return files("pgq") / "data"


def available() -> list[str]:
    return sorted(p.name for p in data_dir().iterdir() if p.name.endswith(".json"))


def load_json(name: str) -> dict:
    if not name.endswith(".json"):
        name += ".json"
    return json.loads((data_dir() / name).read_text())


def resolve(path_or_name: str) -> dict:
    """Read a JSON document from the filesystem, falling back to the bundled
    data directory so CLI examples can name fixtures directly."""
    import os

    if os.path.exists(path_or_name):
        try:
            with open(path_or_name) as fh:
                doc = json.load(fh)
        except OSError as e:  # a directory, or a file without read permission
            raise ValueError(f"{path_or_name}: cannot read it: {e.strerror}") from None
    else:
        try:
            doc = load_json(path_or_name)
        except FileNotFoundError:
            raise FileNotFoundError(
                f"{path_or_name}: no such file and no bundled fixture of that name "
                f"(bundled: {', '.join(available())})"
            ) from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path_or_name}: the top-level JSON value must be an object, "
                         f"not {type(doc).__name__}")
    return doc


def load_slice(name: str) -> CharacterTableSlice:
    return CharacterTableSlice.from_json(load_json(name))


def load_rows(name: str) -> InequalityRowsFixture:
    return InequalityRowsFixture.from_json(load_json(name))


def load_profile(name: str) -> GroupArithmeticProfile:
    return GroupArithmeticProfile.from_json(load_json(name))


def load_tree(name: str) -> BrauerTreeSpec:
    tree = BrauerTreeSpec.from_json(load_json(name))
    diags = validate_tree(tree)
    if diags:
        raise ValueError(f"bundled tree {name} is invalid: {'; '.join(diags)}")
    return tree


#: bundled complete tables paired with the Brauer trees of their principal
#: blocks, keyed by the primes those blocks live at
SMALL_GROUP_TABLES = {
    "s5": {"table": "s5", "trees": {3: "tree_s5_p3", 5: "tree_s5_p5"}},
    "c21": {"table": "c21", "trees": {3: "tree_c21_p3", 7: "tree_c21_p7"}},
}
