"""Structural guard: the package reads parquet through one reader.

Every ``ray.data.read_parquet`` call under ``dataprof_ray/`` lives in
``sources/readers.py``, whose ``read_parquet`` strips the schema metadata and
sizes the read's block count, except the modules below. A new direct call
(``rd.read_parquet``, ``ray.data.read_parquet`` or an imported
``read_parquet`` from ``ray.data``) fails this test; call
``readers.read_parquet`` instead.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "dataprof_ray"
READER = "sources/readers.py"

# module -> why it keeps Ray's own read
ALLOWED = {
    "state/lineage.py":
        "the filter job keeps Ray's split read: one block per shard fused "
        "nothing measurable, and shards routed to several writers need "
        "several blocks per shard",
}


def _ray_data_reads(tree):
    """Line numbers of the module's calls to Ray Data's ``read_parquet``."""
    data_aliases, fn_aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "ray.data" and a.asname:
                    data_aliases.add(a.asname)
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if node.module == "ray" and a.name == "data":
                    data_aliases.add(a.asname or a.name)
                elif node.module == "ray.data" and a.name == "read_parquet":
                    fn_aliases.add(a.asname or a.name)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in fn_aliases:
            lines.append(node.lineno)
        elif isinstance(f, ast.Attribute) and f.attr == "read_parquet":
            owner = ast.unparse(f.value)
            if owner == "ray.data" or owner in data_aliases:
                lines.append(node.lineno)
    return sorted(lines)


def _sites():
    """Module path (relative to the package) -> lines of direct reads."""
    sites = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = _ray_data_reads(ast.parse(path.read_text()))
        if lines:
            sites[path.relative_to(PACKAGE).as_posix()] = lines
    return sites


def test_ray_data_read_parquet_only_in_the_reader_or_allow_list():
    sites = _sites()
    stray = {m: ls for m, ls in sites.items()
             if m != READER and m not in ALLOWED}
    assert not stray, f"direct parquet reads, use readers.read_parquet: {stray}"
    assert READER in sites


def test_allow_list_has_no_stale_entries():
    assert all(reason for reason in ALLOWED.values())
    assert not set(ALLOWED) - set(_sites())


def test_the_scan_sees_every_spelling():
    src = (
        "import ray\n"
        "import ray.data as rd\n"
        "from ray import data as D\n"
        "from ray.data import read_parquet as rp\n"
        "rd.read_parquet('a')\n"
        "ray.data.read_parquet('b')\n"
        "D.read_parquet('c')\n"
        "rp('d')\n"
        "readers.read_parquet('e')\n"
    )
    assert _ray_data_reads(ast.parse(src)) == [5, 6, 7, 8]
