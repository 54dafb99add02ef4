"""Static guard: the sound classes carry no unsound-control switch.

Each chaos control is a named mutant in :mod:`repro.chaos.mutants`, a
subclass overriding one protocol step.  A flag inside the sound code
(``ReplicationConfig.fencing``, a binder's ``transaction_per_step``, the
scenario's ``_flip_without_drain``, the saga shop's
``zombie_safe_refunds``) would put a branch for the broken
variant back on every sound commit, and the idle ``append_window_ms``
knob is gone with its batching code.  This test reads the replication
package, the app binders, the chaos scenarios and the saga shop, and
fails if one of those identifiers comes back.

The replication term has one owner: the replica fences a deposed
leader's acks, so the storage engine names no fence, and
``ReplicationConfig`` keeps the replication factor as its one setting
(the protocol's timing and sizing are constants beside their uses).
It never imports the code it checks.
"""

import io
import os
import tokenize

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)

#: the sound code the controls used to live in
CHECKED = ("replication", os.path.join("apps", "core", "binders"),
           os.path.join("chaos", "scenarios.py"), os.path.join("apps", "shop.py"))

#: identifier fragments of the retired switches
RETIRED = ("fencing", "append_window", "transaction_per_step",
           "_flip_without_drain", "zombie_safe")


def checked_files():
    for entry in CHECKED:
        path = os.path.join(SRC, entry)
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".py"):
                    yield os.path.join(path, name)
        else:
            yield path


def checked_sources():
    for path in checked_files():
        with open(path) as handle:
            yield os.path.relpath(path, SRC), handle.read()


def switches_in(source, retired=RETIRED):
    """Identifiers naming a retired switch; comments and strings are
    prose, not code, and may still mention fencing."""
    return [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.NAME
        and any(fragment in token.string.lower() for fragment in retired)
    ]


def class_fields(source, name):
    """The names annotated at the top level of class ``name``'s body:
    a dataclass's fields."""
    tokens = [
        token for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    starts = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    fields, depth, body = [], 0, None
    for before, token, after in zip(tokens, tokens[1:], tokens[2:]):
        if token.type == tokenize.INDENT:
            depth += 1
        elif token.type == tokenize.DEDENT:
            depth -= 1
            if body is not None and depth < body:
                break
        elif token.string == "class" and after.string == name:
            body = depth + 1
        elif (depth == body and before.type in starts
              and token.type == tokenize.NAME and after.string == ":"):
            fields.append(token.string)
    return tuple(fields)


def read(relpath):
    with open(os.path.join(SRC, relpath)) as handle:
        return handle.read()


def test_checked_sources_exist():
    files = dict(checked_sources())
    for name in ("replication/replica.py", "replication/config.py",
                 "apps/core/binders/db.py", "chaos/scenarios.py", "apps/shop.py"):
        assert name in files


def test_no_control_flag_in_sound_code():
    found = {name: switches_in(source) for name, source in checked_sources()}
    assert not any(found.values()), {k: v for k, v in found.items() if v}


def test_the_guard_matches_what_it_forbids():
    assert switches_in("if not self.config.fencing:\n    pass\n") == ["fencing"]
    assert switches_in("ReplicationConfig(append_window_ms=1.0)\n")
    assert switches_in("bind('db', env, spec, transaction_per_step=True)\n")
    assert switches_in("yield from self._flip_without_drain(0, 'n1')\n")
    assert switches_in("MicroserviceShop(env, workload, zombie_safe_refunds=False)\n")
    assert not switches_in('"""Fencing: fencing tokens."""  # fencing\n')
    assert not switches_in("self._fence(term)\n")


def test_the_engine_names_no_fence():
    assert not switches_in(read(os.path.join("db", "engine.py")), ("fence",))


def test_replication_config_keeps_only_the_factor():
    source = read(os.path.join("replication", "config.py"))
    assert class_fields(source, "ReplicationConfig") == ("factor",)


def test_the_field_reader_sees_every_field():
    source = (
        "@dataclass(frozen=True)\n"
        "class ReplicationConfig:\n"
        "    #: replicas per shard\n"
        "    factor: int = 3\n"
        "    heartbeat_ms: float = 15.0\n"
        "\n"
        "    def __post_init__(self) -> None:\n"
        "        lo: float = 1.0\n"
        "\n"
        "    @property\n"
        "    def quorum(self) -> int:\n"
        "        return self.factor // 2 + 1\n"
        "\n"
        "class Other:\n"
        "    extra: int = 0\n"
    )
    assert class_fields(source, "ReplicationConfig") == ("factor", "heartbeat_ms")
    assert switches_in("self.engine.raise_fence(term)\n", ("fence",))
    assert switches_in("from repro.db.errors import FencedOut\n", ("fence",))
