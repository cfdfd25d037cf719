"""Structural guard: every ``map_batches`` stage runs as stateless tasks.

An autoscaled actor pool holds a CPU per actor, and an actor killed while
its creation is still pending can keep that CPU for the rest of the
session. State that a stage needs is built once per worker process instead
(``docquality.shared_model``, ``textstats._broadcast_cached``). This test
fails on any ``map_batches`` call under ``dataprof_ray/`` or in
``__ray_entry__.py`` that starts a pool: one given a class defined in the
same module, one passing ``fn_constructor_args``, ``fn_constructor_kwargs``
or ``compute=``, and one passing a tuple ``concurrency=`` (a pool's
(min, max) size).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL_KEYWORDS = ("fn_constructor_args", "fn_constructor_kwargs", "compute")


def _sources():
    return sorted((ROOT / "dataprof_ray").rglob("*.py")) + [
        ROOT / "__ray_entry__.py"]


def _pool_sites(source: str, name: str):
    """(file, enclosing top-level name, why) for every ``map_batches`` call
    in ``source`` that would start an actor pool."""
    tree = ast.parse(source)
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    sites = []
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"):
                continue
            fn = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "fn"), None)
            why = []
            if isinstance(fn, ast.Name) and fn.id in classes:
                why.append(f"class {fn.id}")
            why += [f"{k.arg}=" for k in node.keywords if k.arg in POOL_KEYWORDS]
            why += ["concurrency=(min, max)" for k in node.keywords
                    if k.arg == "concurrency" and isinstance(k.value, ast.Tuple)]
            if why:
                sites.append((name, getattr(top, "name", "<module>"), why))
    return sites


def test_no_map_batches_starts_an_actor_pool():
    sites = [s for path in _sources()
             for s in _pool_sites(path.read_text(), str(path.relative_to(ROOT)))]
    assert not sites, f"actor-pool stages, run them as tasks: {sites}"


def test_guard_flags_each_pool_form():
    source = """
class Stage:
    def __call__(self, batch):
        return batch

def run(ds):
    ds.map_batches(Stage, batch_format="pyarrow")
    ds.map_batches(fn=Stage)
    ds.map_batches(f, fn_constructor_kwargs={"k": 1})
    ds.map_batches(f, compute="actors")
    ds.map_batches(f, concurrency=(1, 4))
    ds.map_batches(Stage(), batch_format="pyarrow")
    ds.map_batches(f, concurrency=4)
"""
    sites = _pool_sites(source, "m.py")
    assert [why for _, _, why in sites] == [
        ["class Stage"], ["class Stage"], ["fn_constructor_kwargs="],
        ["compute="], ["concurrency=(min, max)"]]
