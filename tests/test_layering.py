"""The package's modules use each other's private names only where the
allowlist below gives a reason."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "adagram"

# (module, the sibling's private name it imports or reads): why.
ALLOWED = {
    ("precond", "lowrank._combine_in_place"):
        "the in-place FR kernel; the public rank_one_svd_combine copies",
    ("precond", "lowrank._warm_splitting_step"):
        "the in-place PS warm-up kernel; the public projector_splitting_step copies",
    ("bench", "glm._logits"):
        "one test-logits product shared by the test loss and the accuracy",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str, siblings: set[str]) -> set[str]:
    """The sibling-module private names ``source`` imports (``from .x import
    _y``) or reads as attributes (``x._y`` for ``x`` a sibling bound by an
    import), as "x._y"."""
    tree = ast.parse(source)
    bound, uses = {}, set()  # local name -> sibling module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "adagram":
                parts = parts[1:]
            elif node.level != 1:
                continue
            module = ".".join(parts)
            for alias in node.names:
                if not module and alias.name in siblings:  # from . import x
                    bound[alias.asname or alias.name] = alias.name
                elif module in siblings and _private(alias.name):
                    uses.add(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if alias.asname and parts[0] == "adagram" and parts[-1] in siblings:
                    bound[alias.asname] = parts[-1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            uses.add(f"{bound[node.value.id]}.{node.attr}")
    return uses


def test_private_sibling_uses_are_the_allowlist():
    siblings = {p.stem for p in SRC.glob("*.py")}
    found = {(p.stem, use) for p in sorted(SRC.glob("*.py"))
             for use in private_uses(p.read_text(encoding="utf-8"), siblings)}
    assert found == set(ALLOWED)


def test_scan_sees_every_form():
    source = ("from . import glm as g, data\n"
              "from .lowrank import _a, public\n"
              "from adagram.precond import _b\n"
              "import adagram.optim as o\n"
              "g._c(data._d, o._e, data.__name__, other._f)\n")
    assert private_uses(source, {"glm", "data", "lowrank", "precond", "optim"}) == {
        "lowrank._a", "precond._b", "glm._c", "data._d", "optim._e"}
