"""Static guard: the sharded database has one shard kind.

Every shard of :class:`~repro.db.ShardedDatabase` is a replica group; an
unreplicated shard is a group of one.  A second, unreplicated code path
(its own 2PC transport, mover, leader-engine view, or a branch on
``replication is None``) would let fault fixes land on one kind at a
time again, so this test reads ``src/repro/db`` and fails if one comes
back.  It never imports the code it checks.
"""

import ast
import os
import re

DB = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro", "db"
)

#: classes of the retired unreplicated path
RETIRED_CLASSES = {"_ShardRound", "_ShardedMover", "_LeaderView"}

#: a branch on "no replication": the fork itself
FORK = re.compile(r"\breplication\s+is\s+(not\s+)?None\b")


def db_sources():
    for name in sorted(os.listdir(DB)):
        if name.endswith(".py"):
            path = os.path.join(DB, name)
            with open(path) as handle:
                yield name, handle.read()


def forks_in(source):
    return [
        line.strip() for line in source.splitlines()
        if FORK.search(line.split("#", 1)[0])
    ]


def retired_classes_in(source):
    return sorted(
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name in RETIRED_CLASSES
    )


def test_db_sources_exist():
    assert "sharding.py" in dict(db_sources())


def test_no_branch_on_missing_replication():
    found = {name: forks_in(source) for name, source in db_sources()}
    assert not any(found.values()), found


def test_no_retired_unreplicated_shard_class():
    found = {name: retired_classes_in(source) for name, source in db_sources()}
    assert not any(found.values()), found


def test_the_guard_matches_what_it_forbids():
    assert forks_in("        if self.replication is None:\n")
    assert forks_in("elif replication is not None and x:\n")
    assert not forks_in("# replication is None once meant unreplicated\n")
    assert retired_classes_in("class _LeaderView:\n    pass\n") == ["_LeaderView"]
