"""Structural guard: the pipelines exchange rows through one primitive.

Every ``Dataset.map_groups`` call under ``dataprof_ray/pipelines`` lives in
``partitioning.keyed_exchange``, except the exchanges below, which are not
plain hash co-location. A new hand-rolled ``tag -> groupby -> map_groups``
copy fails this test; route it through ``keyed_exchange`` instead.
"""

import ast
from pathlib import Path

PIPELINES = Path(__file__).resolve().parent.parent / "dataprof_ray" / "pipelines"

# (module, top-level function) -> why it keeps its own groupby
ALLOWED = {
    ("join.py", "hash_join"):
        "cogroup reads __part: partition -1 carries NULL keys, hot keys "
        "are salted",
    ("join.py", "asof_join"):
        "cogroup reads __part: partition -1 carries NULL keys",
    ("join.py", "interval_join"):
        "cogroup reads __part: partition -1 carries NULL keys",
    ("packing.py", "pack_concat_chunk"):
        "partitions on meaning: the pack part is an output column",
    ("packing.py", "pack_bins"):
        "partitions on meaning: the pack part is an output column",
    ("packing.py", "packing_efficiency"):
        "partitions on meaning: the pack part is an output column",
    ("packing.py", "packed_sequences"):
        "partitions on meaning: (part, bucket) and (part, seq) groups",
    ("profile.py", "collect_column_state"):
        "tree merge uses grp as the merged part_key",
    ("ranking.py", "global_rank"):
        "range split: each __split group is a sketch range of the sort key",
    ("dedup.py", "semantic_dedup"):
        "one group per centroid cell",
}


def _map_groups_sites():
    """(module, enclosing top-level function) for every ``.map_groups(``
    call in the pipelines package."""
    sites = []
    for path in sorted(PIPELINES.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "map_groups"):
                    sites.append((path.name, getattr(top, "name", "<module>")))
    return sites


def test_map_groups_only_in_keyed_exchange_or_allow_list():
    sites = _map_groups_sites()
    stray = [s for s in sites
             if s[0] != "partitioning.py" and s not in ALLOWED]
    assert not stray, f"hand-rolled exchanges, use keyed_exchange: {stray}"
    assert ("partitioning.py", "keyed_exchange") in sites


def test_allow_list_has_no_stale_entries():
    sites = set(_map_groups_sites())
    assert all(reason for reason in ALLOWED.values())
    assert not set(ALLOWED) - sites
